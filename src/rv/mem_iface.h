// Memory interface seen by instruction semantics.
//
// Implemented by tera::ClusterMemory (L1 scratchpad + L2 + MMIO). Atomic
// read-modify-write goes through a single `amo` entry point; an engine
// applies it indivisibly with respect to its own harts, which all run on
// one host thread, so no host atomics are involved.
#pragma once

#include "common/types.h"

namespace tsim::rv {

/// Atomic operation selector for AMO instructions.
enum class AmoOp : u8 {
  kSwap, kAdd, kXor, kAnd, kOr, kMin, kMax, kMinu, kMaxu,
};

/// Result of a memory access; `fault` is set on out-of-range or misaligned
/// accesses and halts the hart.
struct MemResult {
  u32 value = 0;
  bool fault = false;
};

class MemIface {
 public:
  virtual ~MemIface() = default;

  /// Zero-extending load of 1/2/4 bytes.
  virtual MemResult load(u32 addr, u32 bytes) = 0;

  /// Store of 1/2/4 bytes. Returns fault status; may trigger MMIO effects.
  virtual bool store(u32 addr, u32 value, u32 bytes) = 0;

  /// Atomic read-modify-write of a 32-bit word; returns the OLD value.
  virtual MemResult amo(AmoOp op, u32 addr, u32 value) = 0;

  /// Instruction fetch (32-bit). Separated so engines can model I$.
  virtual MemResult fetch(u32 addr) = 0;
};

}  // namespace tsim::rv
