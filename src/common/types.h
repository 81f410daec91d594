// Core scalar typedefs and small utilities shared by every terasim module.
#pragma once

#include <cstdint>
#include <cstddef>

namespace tsim {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Sign-extend the low `bits` bits of `value` to a full signed 32-bit integer.
constexpr i32 sign_extend(u32 value, unsigned bits) {
  const u32 mask = (bits >= 32) ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  const u32 sign = 1u << (bits - 1);
  const u32 low = value & mask;
  return static_cast<i32>((low ^ sign) - sign);
}

/// Extract bit-field [lo, lo+len) from `value`.
constexpr u32 bits_of(u32 value, unsigned lo, unsigned len) {
  return (value >> lo) & ((len >= 32) ? 0xFFFFFFFFu : ((1u << len) - 1u));
}

/// True if `value` is a power of two (and nonzero).
constexpr bool is_pow2(u64 value) { return value != 0 && (value & (value - 1)) == 0; }

/// ceil(a / b) for positive integers.
constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

/// Round `value` up to the next multiple of `align` (align must be a power of two).
constexpr u64 align_up(u64 value, u64 align) { return (value + align - 1) & ~(align - 1); }

/// Member declarators for the X-macro counter tables (mac::HarqStats, the
/// slot fault counters in ran/scheduler.h): X(name) declares a zeroed counter.
#define TSIM_U32_COUNTER(name) u32 name = 0;
#define TSIM_U64_COUNTER(name) u64 name = 0;

}  // namespace tsim
