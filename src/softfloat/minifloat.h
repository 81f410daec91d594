// Bit-true narrow floating-point formats (IEEE-754 style): binary16 and the
// SmallFloat/MiniFloat 8-bit formats used by the TeraPool ISA extensions.
//
// Encoding/decoding is exact bit manipulation. Arithmetic is performed in
// IEEE double and rounded once to the target format (round-to-nearest-even).
// This is the standard emulator shortcut; it is exact for add/sub/mul of
// narrow formats (their products and sums are exactly representable in
// double) and correct for fused ops except for a documented corner: when a
// 3-term sum has an addend more than 52 bits below the leading term AND the
// leading terms land exactly on a rounding tie, the tie may be broken as
// ties-to-even instead of by the vanishing addend. This cannot affect the
// paper's BER or timing experiments and is excluded from tests.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/types.h"

namespace tsim::sf {

namespace detail {
/// Exact powers of two for the decode fast path. Multiplying an integer-
/// valued double by an exact power of two is exact (no rounding), so this
/// is bit-identical to std::ldexp while staying inlinable - ldexp is an
/// out-of-line libm call on the hottest path of the packed-FP emulation.
constexpr int kPow2Min = -160;
constexpr int kPow2Max = 160;
inline constexpr std::array<double, kPow2Max - kPow2Min + 1> kPow2 = [] {
  std::array<double, kPow2Max - kPow2Min + 1> t{};
  for (int e = kPow2Min; e <= kPow2Max; ++e) {
    // Assemble the double directly: 2^e has a zero mantissa and biased
    // exponent e + 1023 (always normal in this range).
    t[static_cast<size_t>(e - kPow2Min)] =
        std::bit_cast<double>(static_cast<u64>(e + 1023) << 52);
  }
  return t;
}();
inline double exact_scale(double mant, int e) {
  return mant * kPow2[static_cast<size_t>(e - kPow2Min)];
}
}  // namespace detail

/// Result category for FCLASS-style classification.
enum class FpClass : u32 {
  kNegInf = 1u << 0,
  kNegNormal = 1u << 1,
  kNegSubnormal = 1u << 2,
  kNegZero = 1u << 3,
  kPosZero = 1u << 4,
  kPosSubnormal = 1u << 5,
  kPosNormal = 1u << 6,
  kPosInf = 1u << 7,
  kSignalingNan = 1u << 8,
  kQuietNan = 1u << 9,
};

/// Static description of a sign/exponent/mantissa mini-float format.
///
/// The value with biased exponent 0 is subnormal; all-ones exponent encodes
/// inf/NaN, exactly as IEEE-754 binary interchange formats.
template <int kExpBits, int kMantBits>
struct MiniFormat {
  static_assert(kExpBits >= 2 && kExpBits <= 8);
  static_assert(kMantBits >= 1 && kMantBits <= 10);

  static constexpr int kBits = 1 + kExpBits + kMantBits;
  static constexpr int kBias = (1 << (kExpBits - 1)) - 1;
  static constexpr u32 kExpMask = (1u << kExpBits) - 1u;
  static constexpr u32 kMantMask = (1u << kMantBits) - 1u;
  static constexpr u32 kSignBit = 1u << (kExpBits + kMantBits);
  static constexpr u32 kValueMask = (kBits >= 32) ? 0xFFFFFFFFu : ((1u << kBits) - 1u);
  /// Canonical quiet NaN: exponent all ones, mantissa MSB set.
  static constexpr u32 kQuietNanBits = (kExpMask << kMantBits) | (1u << (kMantBits - 1));
  static constexpr u32 kPosInfBits = kExpMask << kMantBits;

  /// Decodes the low kBits of `enc` into an exact double.
  static double to_double(u32 enc) {
    enc &= kValueMask;
    const bool sign = (enc & kSignBit) != 0;
    const u32 exp = (enc >> kMantBits) & kExpMask;
    const u32 mant = enc & kMantMask;
    double mag;
    if (exp == kExpMask) {
      if (mant != 0) return std::numeric_limits<double>::quiet_NaN();
      mag = std::numeric_limits<double>::infinity();
    } else if (exp == 0) {
      // Exponent range here is within [-136, 117] for every MiniFormat
      // (static_asserts above), safely inside the exact_scale table.
      mag = detail::exact_scale(static_cast<double>(mant), 1 - kBias - kMantBits);
    } else {
      mag = detail::exact_scale(static_cast<double>(mant | (kMantMask + 1u)),
                                static_cast<int>(exp) - kBias - kMantBits);
    }
    return sign ? -mag : mag;
  }

  /// Encodes `d` with round-to-nearest-even, overflow to infinity.
  static u32 from_double(double d) {
    const u64 dbits = std::bit_cast<u64>(d);
    const u32 sign = static_cast<u32>(dbits >> 63) << (kExpBits + kMantBits);
    const int dexp = static_cast<int>((dbits >> 52) & 0x7FF);
    const u64 dmant = dbits & ((1ull << 52) - 1);

    if (dexp == 0x7FF) {
      if (dmant != 0) return kQuietNanBits;  // NaN (canonicalized, sign dropped)
      return sign | kPosInfBits;             // +-inf
    }
    if (dexp == 0 && dmant == 0) return sign;  // +-0

    // Significand as a 53-bit integer; value = mant53 * 2^(unbiased - 52).
    // Double subnormals (< 2^-1022) underflow every mini format to zero.
    if (dexp == 0) return sign;
    const u64 mant53 = (1ull << 52) | dmant;
    const int unbiased = dexp - 1023;

    const int min_normal_exp = 1 - kBias;
    int biased;
    int shift;  // number of low bits of mant53 dropped by rounding
    if (unbiased >= min_normal_exp) {
      biased = unbiased + kBias;
      shift = 52 - kMantBits;
    } else {
      biased = 0;
      shift = (52 - kMantBits) + (min_normal_exp - unbiased);
    }
    if (shift > 62) return sign;  // magnitude far below half the smallest subnormal

    // Round-to-nearest-even on the dropped bits.
    u64 keep = mant53 >> shift;
    const u64 rem = mant53 & ((1ull << shift) - 1);
    const u64 half = 1ull << (shift - 1);
    if (rem > half || (rem == half && (keep & 1))) ++keep;

    if (biased == 0) {
      // Subnormal result; rounding may promote to the smallest normal.
      if (keep > kMantMask) return sign | (1u << kMantBits);
      return sign | static_cast<u32>(keep);
    }
    if (keep == (kMantMask + 1u) * 2) {  // carry out of the significand
      keep >>= 1;
      ++biased;
    }
    if (biased >= static_cast<int>(kExpMask)) return sign | kPosInfBits;  // overflow
    return sign | (static_cast<u32>(biased) << kMantBits) |
           (static_cast<u32>(keep) & kMantMask);
  }

  static bool is_nan(u32 enc) {
    enc &= kValueMask;
    return ((enc >> kMantBits) & kExpMask) == kExpMask && (enc & kMantMask) != 0;
  }

  static bool is_inf(u32 enc) {
    enc &= kValueMask;
    return ((enc >> kMantBits) & kExpMask) == kExpMask && (enc & kMantMask) == 0;
  }

  static bool is_zero(u32 enc) { return (enc & kValueMask & ~kSignBit) == 0; }

  static bool sign_of(u32 enc) { return (enc & kSignBit) != 0; }

  /// FCLASS bitmask for the encoded value.
  static u32 classify(u32 enc) {
    enc &= kValueMask;
    const bool neg = sign_of(enc);
    const u32 exp = (enc >> kMantBits) & kExpMask;
    const u32 mant = enc & kMantMask;
    if (exp == kExpMask) {
      if (mant == 0) return static_cast<u32>(neg ? FpClass::kNegInf : FpClass::kPosInf);
      // Mantissa MSB set => quiet NaN (IEEE-754 convention).
      return static_cast<u32>((mant >> (kMantBits - 1)) != 0 ? FpClass::kQuietNan
                                                             : FpClass::kSignalingNan);
    }
    if (exp == 0) {
      if (mant == 0) return static_cast<u32>(neg ? FpClass::kNegZero : FpClass::kPosZero);
      return static_cast<u32>(neg ? FpClass::kNegSubnormal : FpClass::kPosSubnormal);
    }
    return static_cast<u32>(neg ? FpClass::kNegNormal : FpClass::kPosNormal);
  }
};

/// IEEE-754 binary16.
using F16 = MiniFormat<5, 10>;
/// MiniFloat e4m3 (an alternative FP8; the DUT default is F8E4M2, see
/// rv/fp_formats.h and EXPERIMENTS.md).
using F8E4M3 = MiniFormat<4, 3>;
/// SmallFloat binary8 (e5m2).
using F8E5M2 = MiniFormat<5, 2>;
/// Literal paper format "1b sign, 4b exponent, 2b mantissa" (7 bits, stored in 8).
using F8E4M2 = MiniFormat<4, 2>;

// ---------------------------------------------------------------------------
// Generic arithmetic: compute in double, round once into the target format.
// ---------------------------------------------------------------------------

template <typename Fmt>
u32 add(u32 a, u32 b) {
  return Fmt::from_double(Fmt::to_double(a) + Fmt::to_double(b));
}

template <typename Fmt>
u32 sub(u32 a, u32 b) {
  return Fmt::from_double(Fmt::to_double(a) - Fmt::to_double(b));
}

template <typename Fmt>
u32 mul(u32 a, u32 b) {
  return Fmt::from_double(Fmt::to_double(a) * Fmt::to_double(b));
}

template <typename Fmt>
u32 div(u32 a, u32 b) {
  return Fmt::from_double(Fmt::to_double(a) / Fmt::to_double(b));
}

template <typename Fmt>
u32 sqrt(u32 a) {
  return Fmt::from_double(std::sqrt(Fmt::to_double(a)));
}

/// Fused multiply-add: round(a * b + c) with a single rounding.
template <typename Fmt>
u32 fma(u32 a, u32 b, u32 c) {
  return Fmt::from_double(
      std::fma(Fmt::to_double(a), Fmt::to_double(b), Fmt::to_double(c)));
}

/// IEEE 754-2019 minimumNumber: NaN loses to a number, -0 < +0.
template <typename Fmt>
u32 min(u32 a, u32 b) {
  if (Fmt::is_nan(a) && Fmt::is_nan(b)) return Fmt::kQuietNanBits;
  if (Fmt::is_nan(a)) return b & Fmt::kValueMask;
  if (Fmt::is_nan(b)) return a & Fmt::kValueMask;
  const double da = Fmt::to_double(a), db = Fmt::to_double(b);
  if (da == db) return (Fmt::sign_of(a) ? a : b) & Fmt::kValueMask;  // prefer -0
  return (da < db ? a : b) & Fmt::kValueMask;
}

/// IEEE 754-2019 maximumNumber.
template <typename Fmt>
u32 max(u32 a, u32 b) {
  if (Fmt::is_nan(a) && Fmt::is_nan(b)) return Fmt::kQuietNanBits;
  if (Fmt::is_nan(a)) return b & Fmt::kValueMask;
  if (Fmt::is_nan(b)) return a & Fmt::kValueMask;
  const double da = Fmt::to_double(a), db = Fmt::to_double(b);
  if (da == db) return (Fmt::sign_of(a) ? b : a) & Fmt::kValueMask;  // prefer +0
  return (da > db ? a : b) & Fmt::kValueMask;
}

template <typename Fmt>
bool eq(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) == Fmt::to_double(b);
}

template <typename Fmt>
bool lt(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) < Fmt::to_double(b);
}

template <typename Fmt>
bool le(u32 a, u32 b) {
  if (Fmt::is_nan(a) || Fmt::is_nan(b)) return false;
  return Fmt::to_double(a) <= Fmt::to_double(b);
}

/// Sign-injection family (FSGNJ / FSGNJN / FSGNJX).
template <typename Fmt>
u32 sgnj(u32 a, u32 b) {
  return (a & ~Fmt::kSignBit & Fmt::kValueMask) | (b & Fmt::kSignBit);
}
template <typename Fmt>
u32 sgnjn(u32 a, u32 b) {
  return (a & ~Fmt::kSignBit & Fmt::kValueMask) | (~b & Fmt::kSignBit);
}
template <typename Fmt>
u32 sgnjx(u32 a, u32 b) {
  return ((a & Fmt::kValueMask) ^ (b & Fmt::kSignBit));
}

/// Convert to signed 32-bit integer, round toward zero (FCVT.W.* default).
template <typename Fmt>
i32 to_i32(u32 a) {
  const double d = Fmt::to_double(a);
  if (std::isnan(d)) return std::numeric_limits<i32>::max();
  if (d >= 2147483647.0) return std::numeric_limits<i32>::max();
  if (d <= -2147483648.0) return std::numeric_limits<i32>::min();
  return static_cast<i32>(d);
}

/// Convert to unsigned 32-bit integer, round toward zero.
template <typename Fmt>
u32 to_u32(u32 a) {
  const double d = Fmt::to_double(a);
  if (std::isnan(d)) return std::numeric_limits<u32>::max();
  if (d >= 4294967295.0) return std::numeric_limits<u32>::max();
  if (d <= 0.0) return 0;
  return static_cast<u32>(d);
}

template <typename Fmt>
u32 from_i32(i32 v) {
  return Fmt::from_double(static_cast<double>(v));
}

template <typename Fmt>
u32 from_u32(u32 v) {
  return Fmt::from_double(static_cast<double>(v));
}

/// Cross-format conversion with a single rounding.
template <typename Dst, typename Src>
u32 convert(u32 a) {
  if (Src::is_nan(a)) return Dst::kQuietNanBits;
  return Dst::from_double(Src::to_double(a));
}

// ---------------------------------------------------------------------------
// binary32 helpers (zfinx scalar float ops use host IEEE float directly).
// ---------------------------------------------------------------------------

inline float f32_from_bits(u32 b) { return std::bit_cast<float>(b); }
inline u32 f32_to_bits(float f) { return std::bit_cast<u32>(f); }

/// FCLASS.S over a binary32 encoding.
u32 classify_f32(u32 enc);

/// round-to-nearest-even float from double (single rounding for f32 results
/// computed exactly in double).
inline u32 f32_round_from_double(double d) { return f32_to_bits(static_cast<float>(d)); }

}  // namespace tsim::sf
