// Translation cache: the SBT analog of this repo.
//
// Banshee translates the RISC-V binary once (to LLVM IR, then host code).
// Offline we cannot JIT, so the equivalent one-time work is predecoding
// every program word into its dense `rv::Decoded` form; emulation then
// dispatches on the predecoded array with no per-step decode cost. The
// ablation bench `bench_ablation_translation` quantifies the speedup over
// decode-every-step interpretation.
//
// Superblocks
// -----------
// On top of the plain predecode, the cache groups instructions into
// *superblocks*: maximal straight-line runs ending at the next instruction
// that can redirect control or change the hart's run state (branch, jal,
// jalr, wfi, ebreak, invalid word, or the end of the image). Each `SbEntry`
// carries
//   - the decoded operands,
//   - `run_len`: how many instructions remain in the superblock including
//     this one, so the ISS hot loop can retire a whole run with a single
//     pc-to-entry lookup and advance by pointer increment, and
//   - the per-instruction static properties the timing model needs
//     (issue cycles, result latency, mix class, and the writes-rd /
//     post-increment / reads-rd-as-source / R4 / store flags), folded in at
//     translation time so `Machine` never touches `rv::isa_table()` or
//     re-derives format properties per step.
// Only the *last* instruction of a run may branch or enter wfi; any
// instruction may still fault (misaligned or unmapped access), which the
// executor detects via the hart's `halted` flag. Bit-exactness with the
// per-instruction reference path is enforced by `iss_test.cpp` (same
// registers, memory, and cycle counts).
//
// Pointer stability and the convergence-batch consumer
// ----------------------------------------------------
// `entry()` returns pointers into the immutable `entries_` array; the array
// is built once per program and never mutated or reallocated afterwards,
// and Machine keeps every translated program resident for its lifetime
// (machine.h). The SPMD convergence-batch dispatcher relies on this: a
// batch leader's recorded trace holds raw `SbEntry*` run bases that the
// follower replay dereferences after the leader's turn completes, and a
// single `SbEntry` is read ONCE per lockstep sweep (then applied to every
// batch member), which is where the per-hart metadata-read amortization of
// the batched path comes from. Any future cache eviction or in-place
// re-translation scheme must invalidate in-flight traces first.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "rv/decode.h"
#include "rv/inst.h"
#include "rvasm/program.h"

namespace tsim::iss {

/// Entry point of a program: its "_start" symbol, or the base address when
/// the symbol is absent. Part of the program's execution identity.
inline u32 program_entry_pc(const rvasm::Program& prog) {
  const auto it = prog.symbols.find("_start");
  return it != prog.symbols.end() ? it->second : prog.base;
}

/// Content identity of a program: FNV-1a over the base address, the entry
/// point, and every image word. Machine keys its resident-program cache on
/// this (plus a full compare on hash match), so loading a structurally
/// identical program - even a distinct rvasm::Program object - finds the
/// already translated resident entry instead of retranslating. The entry pc
/// is part of the identity: two identical images whose "_start" symbols
/// differ execute differently.
inline u64 program_fingerprint(const rvasm::Program& prog) {
  u64 h = 1469598103934665603ull;  // FNV offset basis
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;  // FNV prime
  };
  mix(prog.base);
  mix(program_entry_pc(prog));
  mix(prog.words.size());
  for (const u32 w : prog.words) mix(w);
  return h;
}

/// One predecoded instruction with its superblock and timing metadata.
struct SbEntry {
  rv::Decoded d;
  u16 run_len = 1;        // instructions to the end of the superblock (>= 1)
  u8 flags = 0;           // kSb* bitmask below
  u8 issue_cycles = 1;    // from rv::InstrDef
  u8 result_latency = 1;  // from rv::InstrDef
  u8 mix = 0;             // rv::Mix as raw index
};

// SbEntry::flags bits.
constexpr u8 kSbWritesRd = 1u << 0;     // format writes a destination register
constexpr u8 kSbPostIncLoad = 1u << 1;  // post-increment load: rs1 ready at issue+1
constexpr u8 kSbReadsRdSrc = 1u << 2;   // rd is an implicit source (scoreboard)
constexpr u8 kSbReadsRs3 = 1u << 3;     // R4 format: scoreboard must check rs3
constexpr u8 kSbStore = 1u << 4;  // may store (incl. sc.w): can hit MMIO wake

class TranslationCache {
 public:
  TranslationCache() = default;

  /// Predecodes the full program image and computes superblock runs.
  explicit TranslationCache(const rvasm::Program& prog)
      : base_(prog.base), entries_(prog.words.size()) {
    for (size_t i = 0; i < prog.words.size(); ++i) {
      SbEntry& e = entries_[i];
      e.d = rv::decode(prog.words[i]);
      const rv::InstrDef& def = rv::def_of(e.d.op);
      e.issue_cycles = def.issue_cycles;
      e.result_latency = def.result_latency;
      e.mix = static_cast<u8>(def.mix);
      e.flags = 0;
      if (format_writes_rd(def.fmt)) e.flags |= kSbWritesRd;
      if (is_post_increment_load(e.d.op)) e.flags |= kSbPostIncLoad;
      if (rv::reads_rd(e.d.op)) e.flags |= kSbReadsRdSrc;
      if (def.fmt == rv::Fmt::kR4) e.flags |= kSbReadsRs3;
      // Everything that can reach ClusterMemory::store - and hence the MMIO
      // wake register, whose handler timestamps with t_current_cycle: the
      // store-class ops plus sc.w (classified kAmo but stores on success).
      if (def.mix == rv::Mix::kStore || e.d.op == rv::Op::kScW)
        e.flags |= kSbStore;
    }
    // Backward pass: run lengths up to the next control/run-state boundary.
    // Runs never extend INTO an invalid word: the executor halts a hart at
    // an invalid instruction without retiring it (no instret/cycle side
    // effects), which it can only do when the invalid entry heads its own
    // run and is caught by the head-of-run check.
    for (size_t i = entries_.size(); i-- > 0;) {
      if (i + 1 == entries_.size() || is_terminator(entries_[i].d.op) ||
          entries_[i + 1].d.op == rv::Op::kInvalid) {
        entries_[i].run_len = 1;
      } else {
        entries_[i].run_len = static_cast<u16>(
            std::min<u32>(entries_[i + 1].run_len + 1u, 0xFFFFu));
      }
    }
  }

  /// Decoded instruction at `pc`; nullptr when pc leaves the translated image.
  const rv::Decoded* lookup(u32 pc) const {
    const SbEntry* e = entry(pc);
    return e != nullptr ? &e->d : nullptr;
  }

  /// Superblock entry at `pc`; nullptr when pc leaves the translated image.
  /// The returned pointer is valid for `run_len` consecutive entries.
  const SbEntry* entry(u32 pc) const {
    const u32 off = pc - base_;
    if ((off & 3) != 0 || off / 4 >= entries_.size()) return nullptr;
    return &entries_[off / 4];
  }

  u32 base() const { return base_; }
  size_t size() const { return entries_.size(); }

  /// True for instructions that may end a superblock: anything that can
  /// redirect pc or change the hart's run state.
  static constexpr bool is_terminator(rv::Op op) {
    switch (op) {
      case rv::Op::kJal:
      case rv::Op::kJalr:
      case rv::Op::kBeq:
      case rv::Op::kBne:
      case rv::Op::kBlt:
      case rv::Op::kBge:
      case rv::Op::kBltu:
      case rv::Op::kBgeu:
      case rv::Op::kWfi:
      case rv::Op::kEbreak:
      case rv::Op::kInvalid:
        return true;
      default:
        return false;
    }
  }

  static constexpr bool format_writes_rd(rv::Fmt fmt) {
    switch (fmt) {
      case rv::Fmt::kS:
      case rv::Fmt::kB:
      case rv::Fmt::kNullary:
        return false;
      default:
        return true;
    }
  }

  static constexpr bool is_post_increment_load(rv::Op op) {
    switch (op) {
      case rv::Op::kPLb:
      case rv::Op::kPLbu:
      case rv::Op::kPLh:
      case rv::Op::kPLhu:
      case rv::Op::kPLw:
        return true;
      default:
        return false;
    }
  }

 private:
  u32 base_ = 0;
  std::vector<SbEntry> entries_;
};

}  // namespace tsim::iss
