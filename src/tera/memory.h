// Cluster memory system: L1 scratchpad banks + L2 + MMIO, implementing the
// rv::MemIface used by instruction semantics.
//
// Thread-safety: none. One ClusterMemory belongs to one machine, and a
// machine runs on one host thread at a time, so word accesses, sub-word
// merges and AMOs are plain loads, stores and read-modify-writes. Host
// parallelism runs whole machines side by side and never shares a memory.
//
// The load/store/amo hot paths are defined inline here: the ISS calls them
// through the concrete ClusterMemory type (devirtualized by the rv::execute
// template), so keeping the bodies visible lets the compiler inline the
// route + word access into the instruction dispatch loop.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rv/mem_iface.h"
#include "sim/snapshot.h"
#include "tera/addr_map.h"

namespace tsim::tera {

class ClusterMemory final : public rv::MemIface {
 public:
  explicit ClusterMemory(const TeraPoolConfig& cfg);

  // ---- rv::MemIface ----
  rv::MemResult load(u32 addr, u32 bytes) override {
    const auto r = map_.route(addr);
    if (!r) return {0, true};
    const u32 word = word_load(*r);
    const u32 shift = (addr & 3) * 8;
    switch (bytes) {
      case 1: return {(word >> shift) & 0xFF, false};
      case 2: return {(word >> shift) & 0xFFFF, false};
      default: return {word, false};
    }
  }

  bool store(u32 addr, u32 value, u32 bytes) override {
    const auto r = map_.route(addr);
    if (!r) return true;
    if (bytes == 4) {
      word_store(*r, value);
      return false;
    }
    if (r->space == Space::kMmio) {
      // Sub-word MMIO stores behave as word stores of the (masked) value.
      mmio_store(r->phys_word, value);
      return false;
    }
    u32& slot = (r->space == Space::kL1) ? l1_[r->phys_word] : l2_[r->phys_word];
    const u32 shift = (addr & 3) * 8;
    const u32 mask = (bytes == 1 ? 0xFFu : 0xFFFFu) << shift;
    slot = (slot & ~mask) | ((value << shift) & mask);
    return false;
  }

  rv::MemResult amo(rv::AmoOp op, u32 addr, u32 value) override;
  rv::MemResult fetch(u32 addr) override;

  // ---- host-side access (no MMIO side effects, handles interleaving) ----
  void host_write(u32 addr, std::span<const u8> bytes);
  void host_read(u32 addr, std::span<u8> out) const;
  void host_write_words(u32 addr, std::span<const u32> words);
  u32 host_read_word(u32 addr) const;

  /// Loads a program image into L2 (or wherever its base points).
  void load_program(u32 base, std::span<const u32> words);

  /// Zeroes L1 and the console; L2 is preserved.
  void reset_l1();

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Serializes the L1 words, zero-run compressed. L2 holds only program
  /// images, which the owner rebuilds by re-loading its programs; the MMSE
  /// kernels never load from L2 or MMIO, so those words and the console
  /// feed no later run. Call between runs only - no hart may be executing.
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores L1 captured by save_state into a memory of the same
  /// configuration (identical L1 size); throws sim::SnapshotError on a size
  /// mismatch or corrupt payload. L2, MMIO and the console are untouched.
  void restore_state(sim::SnapshotReader& r);

  // ---- MMIO observers ----
  /// Invoked on a store to the exit register (argument: exit code).
  void set_exit_handler(std::function<void(u32)> fn) { on_exit_ = std::move(fn); }
  /// Invoked on a store to the wake register (argument: hart id or ~0u).
  void set_wake_handler(std::function<void(u32)> fn) { on_wake_ = std::move(fn); }

  const std::string& console() const { return console_; }
  const AddrMap& map() const { return map_; }

 private:
  u32 word_load(const Route& r) const {
    switch (r.space) {
      case Space::kL1: return l1_[r.phys_word];
      case Space::kL2: return l2_[r.phys_word];
      case Space::kMmio: return mmio_[r.phys_word];
    }
    return 0;
  }
  void word_store(const Route& r, u32 value) {
    switch (r.space) {
      case Space::kL1: l1_[r.phys_word] = value; break;
      case Space::kL2: l2_[r.phys_word] = value; break;
      case Space::kMmio: mmio_store(r.phys_word, value); break;
    }
  }
  void mmio_store(u32 word_index, u32 value);  // cold: exit/putchar/wake

  /// Backing words for [addr, addr + 4*nwords) when that range is entirely
  /// inside a host-contiguous region (interleaved L1 or L2); else nullptr.
  const u32* contiguous_words(u32 addr, size_t nwords) const;

  AddrMap map_;
  std::vector<u32> l1_;
  std::vector<u32> l2_;
  std::vector<u32> mmio_;
  std::string console_;
  std::function<void(u32)> on_exit_;
  std::function<void(u32)> on_wake_;
};

}  // namespace tsim::tera
