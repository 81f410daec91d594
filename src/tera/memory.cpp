#include "tera/memory.h"

#include <bit>
#include <cstring>

#include "common/error.h"

namespace tsim::tera {

ClusterMemory::ClusterMemory(const TeraPoolConfig& cfg)
    : map_(cfg), l1_(map_.l1_words(), 0), l2_(map_.l2_words(), 0), mmio_(0x1000 / 4, 0) {}


void ClusterMemory::mmio_store(u32 word_index, u32 value) {
  const u32 addr = kMmioBase + word_index * 4;
  switch (addr) {
    case kMmioExit:
      if (on_exit_) on_exit_(value);
      break;
    case kMmioPutchar:
      console_.push_back(static_cast<char>(value & 0xFF));
      break;
    case kMmioWake:
      if (on_wake_) on_wake_(value);
      break;
    default:
      mmio_[word_index] = value;
      break;
  }
}


rv::MemResult ClusterMemory::amo(rv::AmoOp op, u32 addr, u32 value) {
  const auto r = map_.route(addr);
  if (!r) return {0, true};
  u32& slot = (r->space == Space::kL1)   ? l1_[r->phys_word]
              : (r->space == Space::kL2) ? l2_[r->phys_word]
                                         : mmio_[r->phys_word];
  const u32 old = slot;
  using rv::AmoOp;
  switch (op) {
    case AmoOp::kSwap: slot = value; break;
    case AmoOp::kAdd: slot = old + value; break;
    case AmoOp::kXor: slot = old ^ value; break;
    case AmoOp::kAnd: slot = old & value; break;
    case AmoOp::kOr: slot = old | value; break;
    case AmoOp::kMin:
      slot = static_cast<i32>(value) < static_cast<i32>(old) ? value : old;
      break;
    case AmoOp::kMax:
      slot = static_cast<i32>(value) > static_cast<i32>(old) ? value : old;
      break;
    case AmoOp::kMinu: slot = value < old ? value : old; break;
    case AmoOp::kMaxu: slot = value > old ? value : old; break;
    default: return {0, true};
  }
  return {old, false};
}

rv::MemResult ClusterMemory::fetch(u32 addr) {
  if ((addr & 3) != 0) return {0, true};
  return load(addr, 4);
}

// Both bulk regions are host-contiguous: the interleaved L1 view stores
// word i at l1_[i] (bank striping is a routing view transform, see
// addr_map.h) and L2 always was a flat array. Host-side bulk access over
// either region is therefore a single memcpy; only the tile-major
// sequential view still needs the per-word route loop.
const u32* ClusterMemory::contiguous_words(u32 addr, size_t nwords) const {
  const u64 end = static_cast<u64>(addr) + static_cast<u64>(nwords) * 4;
  if (addr < kL1SequentialBase && end <= static_cast<u64>(map_.l1_words()) * 4)
    return l1_.data() + addr / 4;
  if (addr >= kL2Base && end - kL2Base <= static_cast<u64>(map_.l2_words()) * 4)
    return l2_.data() + (addr - kL2Base) / 4;
  return nullptr;
}

void ClusterMemory::host_write(u32 addr, std::span<const u8> bytes) {
  if constexpr (std::endian::native == std::endian::little) {
    // Byte offset k of a contiguous word region is host byte k on a
    // little-endian host, so byte spans copy directly too.
    const u32 base = addr & ~3u;
    const size_t span = (addr - base) + bytes.size();
    if (const u32* w = contiguous_words(base, (span + 3) / 4)) {
      std::memcpy(const_cast<u8*>(reinterpret_cast<const u8*>(w)) + (addr & 3),
                  bytes.data(), bytes.size());
      return;
    }
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    const u32 a = addr + static_cast<u32>(i);
    const auto r = map_.route(a);
    check(r.has_value() && r->space != Space::kMmio, "host_write: unmapped address");
    u32& slot = (r->space == Space::kL1) ? l1_[r->phys_word] : l2_[r->phys_word];
    const u32 shift = (a & 3) * 8;
    slot = (slot & ~(0xFFu << shift)) | (static_cast<u32>(bytes[i]) << shift);
  }
}

void ClusterMemory::host_read(u32 addr, std::span<u8> out) const {
  if constexpr (std::endian::native == std::endian::little) {
    const u32 base = addr & ~3u;
    const size_t span = (addr - base) + out.size();
    if (const u32* w = contiguous_words(base, (span + 3) / 4)) {
      std::memcpy(out.data(), reinterpret_cast<const u8*>(w) + (addr & 3), out.size());
      return;
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    const u32 a = addr + static_cast<u32>(i);
    const auto r = map_.route(a);
    check(r.has_value(), "host_read: unmapped address");
    const u32 word = word_load(*r);
    out[i] = static_cast<u8>(word >> ((a & 3) * 8));
  }
}

void ClusterMemory::host_write_words(u32 addr, std::span<const u32> words) {
  check((addr & 3) == 0, "host_write_words: unaligned");
  if (const u32* w = contiguous_words(addr, words.size())) {
    std::memcpy(const_cast<u32*>(w), words.data(), words.size() * 4);
    return;
  }
  for (size_t i = 0; i < words.size(); ++i) {
    const auto r = map_.route(addr + static_cast<u32>(i * 4));
    check(r.has_value() && r->space != Space::kMmio, "host_write_words: unmapped");
    u32& slot = (r->space == Space::kL1) ? l1_[r->phys_word] : l2_[r->phys_word];
    slot = words[i];
  }
}

u32 ClusterMemory::host_read_word(u32 addr) const {
  check((addr & 3) == 0, "host_read_word: unaligned");
  const auto r = map_.route(addr);
  check(r.has_value(), "host_read_word: unmapped");
  return word_load(*r);
}

void ClusterMemory::load_program(u32 base, std::span<const u32> words) {
  host_write_words(base, words);
}

void ClusterMemory::reset_l1() {
  std::fill(l1_.begin(), l1_.end(), 0u);
  std::fill(mmio_.begin(), mmio_.end(), 0u);
  console_.clear();
}

namespace {

constexpr u32 kMemoryTag = 0x324D454D;  // "MEM2"

// L1 is serialized with a zero-run-length encoding: a batch touches only
// the problem slots and scratch areas of the cores it ran, the rest of L1
// stays zero, and snapshot cost is bound by bytes pushed through
// write+fsync, so storing zero runs as counts instead of payload keeps
// periodic checkpointing within the soak-overhead budget.
//
// Format: u64 total word count, then records of
//   u64 zero_run, u64 literal_run, literal_run raw u32 words
// until the total is covered. A literal run may contain short interior zero
// gaps (fewer than kMinZeroRun words) so sparse-but-live regions don't
// explode into per-word records.
constexpr size_t kMinZeroRun = 32;

void write_mem_words(sim::SnapshotWriter& w, const std::vector<u32>& v) {
  const size_t n = v.size();
  w.write_u64(n);
  size_t i = 0;
  while (i < n) {
    size_t z = i;
    while (z < n && v[z] == 0) ++z;
    // Extend the literal until a zero run long enough to be worth a record.
    size_t k = z;
    size_t zeros = 0;
    while (k < n) {
      if (v[k] == 0) {
        if (++zeros >= kMinZeroRun) break;
      } else {
        zeros = 0;
      }
      ++k;
    }
    size_t e = k;
    while (e > z && v[e - 1] == 0) --e;
    w.write_u64(z - i);
    w.write_u64(e - z);
    if (e > z) w.write_bytes(v.data() + z, (e - z) * sizeof(u32));
    i = (e > z) ? e : z;
  }
}

void read_mem_words(sim::SnapshotReader& r, std::vector<u32>& out,
                    size_t expected_words) {
  const u64 n = r.read_u64();
  if (n != expected_words)
    r.fail("memory snapshot sizes do not match this configuration");
  std::vector<u32> v(expected_words, 0);
  u64 pos = 0;
  while (pos < n) {
    const u64 zero_run = r.read_u64();
    const u64 literal_run = r.read_u64();
    if (zero_run > n - pos) r.fail("memory snapshot zero run overflows region");
    pos += zero_run;
    if (literal_run > n - pos)
      r.fail("memory snapshot literal run overflows region");
    if (zero_run == 0 && literal_run == 0)
      r.fail("memory snapshot contains an empty run record");
    r.read_bytes(v.data() + pos, literal_run * sizeof(u32));
    pos += literal_run;
  }
  out = std::move(v);
}

}  // namespace

void ClusterMemory::save_state(sim::SnapshotWriter& w) const {
  w.tag(kMemoryTag);
  write_mem_words(w, l1_);
}

void ClusterMemory::restore_state(sim::SnapshotReader& r) {
  r.expect_tag(kMemoryTag, "ClusterMemory");
  read_mem_words(r, l1_, l1_.size());
}

}  // namespace tsim::tera
