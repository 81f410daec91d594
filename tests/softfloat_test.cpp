// Bit-true mini-float format tests: encode/decode round trips, rounding,
// special values, and arithmetic identities; plus differential tests of the
// conversions every build compiles (F16C in optimized x86 builds, the integer
// routines elsewhere) against the integer reference routines, down to the
// packed fp16/fp8 instructions built on them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "rv/exec.h"
#include "rv/fp_formats.h"
#include "softfloat/minifloat.h"
#include "softfloat/packed.h"
#include "tera/memory.h"

namespace tsim::sf {
namespace {

TEST(F16, EncodesKnownConstants) {
  EXPECT_EQ(F16::from_double(0.0), 0x0000u);
  EXPECT_EQ(F16::from_double(-0.0), 0x8000u);
  EXPECT_EQ(F16::from_double(1.0), 0x3C00u);
  EXPECT_EQ(F16::from_double(-1.0), 0xBC00u);
  EXPECT_EQ(F16::from_double(2.0), 0x4000u);
  EXPECT_EQ(F16::from_double(0.5), 0x3800u);
  EXPECT_EQ(F16::from_double(65504.0), 0x7BFFu);             // max normal
  EXPECT_EQ(F16::from_double(std::ldexp(1.0, -24)), 0x0001u);  // min subnormal
  EXPECT_EQ(F16::from_double(std::ldexp(1.0, -26)), 0x0000u);  // below half of it
}

TEST(F16, DecodesKnownConstants) {
  EXPECT_DOUBLE_EQ(F16::to_double(0x3C00), 1.0);
  EXPECT_DOUBLE_EQ(F16::to_double(0x4000), 2.0);
  EXPECT_DOUBLE_EQ(F16::to_double(0x3555), 0.333251953125);
  EXPECT_DOUBLE_EQ(F16::to_double(0x0001), std::ldexp(1.0, -24));  // min subnormal
  EXPECT_DOUBLE_EQ(F16::to_double(0x0400), std::ldexp(1.0, -14));  // min normal
}

TEST(F16, RoundTripsAllFiniteEncodings) {
  for (u32 enc = 0; enc < 0x10000; ++enc) {
    if (F16::is_nan(enc)) continue;
    const double d = F16::to_double(enc);
    const u32 back = F16::from_double(d);
    // -0 and +0 both decode to 0.0 but encode preserving the sign we gave.
    if (enc == 0x8000) {
      EXPECT_EQ(back, 0x8000u);
    } else {
      EXPECT_EQ(back, enc) << "enc=0x" << std::hex << enc;
    }
  }
}

TEST(F16, RoundsToNearestEven) {
  // 1.0 + 1ulp/2 rounds to even (stays 1.0).
  const double one_plus_half_ulp = 1.0 + std::ldexp(1.0, -11);
  EXPECT_EQ(F16::from_double(one_plus_half_ulp), 0x3C00u);
  // The next representable tie rounds up to even.
  const double odd_tie = F16::to_double(0x3C01) + std::ldexp(1.0, -11);
  EXPECT_EQ(F16::from_double(odd_tie), 0x3C02u);
  // Slightly above the tie rounds up.
  EXPECT_EQ(F16::from_double(one_plus_half_ulp + 1e-8), 0x3C01u);
}

TEST(F16, OverflowGoesToInfinity) {
  EXPECT_EQ(F16::from_double(1e6), F16::kPosInfBits);
  EXPECT_EQ(F16::from_double(-1e6), F16::kSignBit | F16::kPosInfBits);
  EXPECT_EQ(F16::from_double(65520.0), F16::kPosInfBits);  // above max+ulp/2 tie
}

TEST(F16, SubnormalsRoundCorrectly) {
  const double min_sub = std::ldexp(1.0, -24);
  EXPECT_EQ(F16::from_double(min_sub), 0x0001u);
  EXPECT_EQ(F16::from_double(min_sub * 0.5), 0x0000u);       // tie to even -> 0
  EXPECT_EQ(F16::from_double(min_sub * 0.75), 0x0001u);      // rounds up
  EXPECT_EQ(F16::from_double(min_sub * 1.5), 0x0002u);       // tie to even -> 2
}

TEST(F16, NanAndInfHandling) {
  EXPECT_TRUE(F16::is_nan(F16::from_double(std::nan(""))));
  EXPECT_TRUE(F16::is_inf(F16::from_double(INFINITY)));
  EXPECT_TRUE(std::isnan(F16::to_double(F16::kQuietNanBits)));
  EXPECT_TRUE(std::isinf(F16::to_double(F16::kPosInfBits)));
}

TEST(F16, ArithmeticMatchesDoubleWithSingleRounding) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const u32 a = F16::from_double(rng.normal());
    const u32 b = F16::from_double(rng.normal());
    EXPECT_EQ(add<F16>(a, b), F16::from_double(F16::to_double(a) + F16::to_double(b)));
    EXPECT_EQ(mul<F16>(a, b), F16::from_double(F16::to_double(a) * F16::to_double(b)));
  }
}

TEST(F16, FmaIsFused) {
  // Choose a case where fused and unfused differ: a*b slightly above a tie.
  const u32 a = F16::from_double(1.0 + 1.0 / 1024);
  const u32 b = F16::from_double(1.0 + 1.0 / 1024);
  const u32 c = F16::from_double(std::ldexp(1.0, -20));
  const double exact = F16::to_double(a) * F16::to_double(b) + F16::to_double(c);
  EXPECT_EQ(fma<F16>(a, b, c), F16::from_double(exact));
}

TEST(F16, MinMaxIeeeSemantics) {
  const u32 one = F16::from_double(1.0);
  const u32 neg = F16::from_double(-2.0);
  EXPECT_EQ(min<F16>(one, neg), neg);
  EXPECT_EQ(max<F16>(one, neg), one);
  EXPECT_EQ(min<F16>(F16::kQuietNanBits, one), one);   // NaN loses
  EXPECT_EQ(max<F16>(one, F16::kQuietNanBits), one);
  EXPECT_EQ(min<F16>(0x8000u, 0x0000u), 0x8000u);      // -0 < +0
}

TEST(F16, Comparisons) {
  const u32 a = F16::from_double(1.5), b = F16::from_double(2.5);
  EXPECT_TRUE(lt<F16>(a, b));
  EXPECT_TRUE(le<F16>(a, a));
  EXPECT_TRUE(eq<F16>(b, b));
  EXPECT_FALSE(eq<F16>(F16::kQuietNanBits, F16::kQuietNanBits));
  EXPECT_FALSE(lt<F16>(F16::kQuietNanBits, a));
}

TEST(F16, Classify) {
  EXPECT_EQ(F16::classify(0x3C00), static_cast<u32>(FpClass::kPosNormal));
  EXPECT_EQ(F16::classify(0xBC00), static_cast<u32>(FpClass::kNegNormal));
  EXPECT_EQ(F16::classify(0x0000), static_cast<u32>(FpClass::kPosZero));
  EXPECT_EQ(F16::classify(0x8000), static_cast<u32>(FpClass::kNegZero));
  EXPECT_EQ(F16::classify(0x0001), static_cast<u32>(FpClass::kPosSubnormal));
  EXPECT_EQ(F16::classify(0x7C00), static_cast<u32>(FpClass::kPosInf));
  EXPECT_EQ(F16::classify(0x7E00), static_cast<u32>(FpClass::kQuietNan));
  EXPECT_EQ(F16::classify(0x7D00), static_cast<u32>(FpClass::kSignalingNan));
}

template <typename Fmt>
class MiniFormatTest : public ::testing::Test {};

using Formats = ::testing::Types<F8E4M3, F8E5M2, F8E4M2>;
TYPED_TEST_SUITE(MiniFormatTest, Formats);

TYPED_TEST(MiniFormatTest, RoundTripsAllFiniteEncodings) {
  using Fmt = TypeParam;
  for (u32 enc = 0; enc < (1u << Fmt::kBits); ++enc) {
    if (Fmt::is_nan(enc)) continue;
    const double d = Fmt::to_double(enc);
    const u32 back = Fmt::from_double(d);
    if (Fmt::is_zero(enc) && Fmt::sign_of(enc)) {
      EXPECT_EQ(back, enc);
    } else {
      EXPECT_EQ(back, enc) << "enc=" << enc;
    }
  }
}

TYPED_TEST(MiniFormatTest, OneIsExact) {
  using Fmt = TypeParam;
  EXPECT_DOUBLE_EQ(Fmt::to_double(Fmt::from_double(1.0)), 1.0);
}

TYPED_TEST(MiniFormatTest, QuantizationErrorIsBounded) {
  using Fmt = TypeParam;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform() * 2.0 + 0.25;  // stay in normal range
    const double q = Fmt::to_double(Fmt::from_double(v));
    const double max_rel = 0.5 / ((Fmt::kMantMask + 1));  // half ulp at 1.x
    EXPECT_LE(std::abs(q - v) / v, max_rel + 1e-12);
  }
}

TEST(Packed, LaneHelpers) {
  const u32 r = pack16(0x1234, 0xABCD);
  EXPECT_EQ(lane16(r, 0), 0x1234);
  EXPECT_EQ(lane16(r, 1), 0xABCD);
  EXPECT_EQ(insert16(r, 0, 0xFFFF), 0xABCDFFFFu);
  const u32 b = pack8(1, 2, 3, 4);
  EXPECT_EQ(lane8(b, 0), 1);
  EXPECT_EQ(lane8(b, 3), 4);
  EXPECT_EQ(insert8(b, 2, 9), pack8(1, 2, 9, 4));
}

TEST(F32Classify, Basics) {
  EXPECT_EQ(classify_f32(f32_to_bits(1.0f)), static_cast<u32>(FpClass::kPosNormal));
  EXPECT_EQ(classify_f32(f32_to_bits(-0.0f)), static_cast<u32>(FpClass::kNegZero));
  EXPECT_EQ(classify_f32(0x7FC00000u), static_cast<u32>(FpClass::kQuietNan));
}

// ---------------------------------------------------------------------------
// Differential tests: the compiled conversions against the integer reference.
// ---------------------------------------------------------------------------

u64 bits_of(double d) { return std::bit_cast<u64>(d); }

TEST(F16Differential, DecodeMatchesReferenceOnAllEncodings) {
  for (u32 enc = 0; enc < 0x10000; ++enc) {
    ASSERT_EQ(bits_of(F16::to_double(enc)), bits_of(F16::to_double_int(enc)))
        << "enc=0x" << std::hex << enc;
    // Bits above the format are ignored.
    ASSERT_EQ(bits_of(F16::to_double(enc | 0xA5A50000u)), bits_of(F16::to_double_int(enc)));
  }
  EXPECT_EQ(bits_of(F16::to_double(0xFE01)),
            bits_of(std::numeric_limits<double>::quiet_NaN()));  // canonical NaN
}

// Encodes `d` both ways and expects identical bits.
void expect_encode_matches(double d) {
  ASSERT_EQ(F16::from_double(d), F16::from_double_int(d))
      << "d=" << std::hexfloat << d << " bits=0x" << std::hex << bits_of(d);
}

// `d` and its neighbours one double ULP either side.
void expect_encode_matches_around(double d) {
  expect_encode_matches(d);
  expect_encode_matches(std::nextafter(d, std::numeric_limits<double>::infinity()));
  expect_encode_matches(std::nextafter(d, -std::numeric_limits<double>::infinity()));
}

TEST(F16Differential, EncodeMatchesReferenceOnEveryValueAndTie) {
  for (u32 enc = 0; enc <= 0x7BFF; ++enc) {  // every finite non-negative half
    const double lo = F16::to_double_int(enc);
    // The next value up; past 65504 it is the overflow point 2^16.
    const double hi = enc == 0x7BFF ? 65536.0 : F16::to_double_int(enc + 1);
    const double tie = (lo + hi) / 2;  // exact: one more bit than binary16
    for (const double sign : {1.0, -1.0}) {
      expect_encode_matches_around(sign * lo);
      expect_encode_matches_around(sign * tie);
    }
    if (HasFailure()) return;  // one report, not thousands
  }
}

TEST(F16Differential, EncodeMatchesReferenceOnEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  const double flt_max = std::numeric_limits<float>::max();
  const std::vector<double> edges = {
      0.0, std::ldexp(1.0, -24), std::ldexp(1.0, -25), std::ldexp(3.0, -26),
      std::ldexp(1.0, -14), std::ldexp(1023.0, -24), std::ldexp(2047.0, -25),
      65504.0, 65519.0, 65520.0, 65536.0,
      std::numeric_limits<float>::denorm_min(), std::numeric_limits<float>::min(),
      flt_max, std::nextafter(flt_max, inf),
      static_cast<double>(flt_max) + std::ldexp(1.0, 103),  // float overflow tie
      std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), 1e-300, 1e300};
  for (const double e : edges) {
    expect_encode_matches_around(e);
    expect_encode_matches_around(-e);
  }
  for (const double e : {inf, -inf, 0.0, -0.0}) expect_encode_matches(e);
  for (const u64 nan : {0x7FF8000000000000ull, 0xFFF8000000000000ull,
                        0x7FF0000000000001ull, 0xFFFFFFFFFFFFFFFFull}) {
    EXPECT_EQ(F16::from_double(std::bit_cast<double>(nan)), F16::kQuietNanBits);
    expect_encode_matches(std::bit_cast<double>(nan));
  }
  EXPECT_EQ(F16::from_double(-0.0), 0x8000u);
  EXPECT_EQ(F16::from_double(65520.0), F16::kPosInfBits);
  EXPECT_EQ(F16::from_double(-std::ldexp(1.0, -26)), 0x8000u);
}

TEST(F16Differential, EncodeMatchesReferenceOnRandomDoubles) {
  Rng rng(2025);
  constexpr int kDraws = 10'000'000;
  for (int i = 0; i < kDraws; ++i) {
    u64 bits = rng.next_u64();
    switch (i % 3) {
      case 0:  // any double: every exponent, subnormals, inf and NaN
        break;
      case 1:  // exponents around binary16's range, 2^-40 .. 2^20
        bits = (bits & 0x800FFFFFFFFFFFFFull) |
               (static_cast<u64>(1023 - 40 + (bits >> 52) % 61) << 52);
        break;
      default:  // the same range with the low 40 mantissa bits cleared, so
                // ties and near-ties are frequent
        bits = (bits & 0x800FFF0000000000ull) |
               (static_cast<u64>(1023 - 40 + (bits >> 52) % 61) << 52);
        break;
    }
    expect_encode_matches(std::bit_cast<double>(bits));
    if (HasFailure()) return;
  }
}

template <typename Fmt>
class MiniFormatTableTest : public ::testing::Test {};
TYPED_TEST_SUITE(MiniFormatTableTest, Formats);

TYPED_TEST(MiniFormatTableTest, DecodeTableMatchesReference) {
  using Fmt = TypeParam;
  for (u32 enc = 0; enc < (1u << Fmt::kBits); ++enc) {
    EXPECT_EQ(bits_of(Fmt::to_double(enc)), bits_of(Fmt::to_double_int(enc)))
        << "enc=" << enc;
    EXPECT_EQ(bits_of(Fmt::to_double(enc | 0xFFFFFF00u)), bits_of(Fmt::to_double_int(enc)));
  }
}

// The packed instructions built on the conversions, against the same
// formulas written with the integer reference routines.
class PackedFpDifferential : public ::testing::Test {
 protected:
  PackedFpDifferential() : mem_(tera::TeraPoolConfig::tiny()) {}

  u32 run(rv::Op op, u32 acc, u32 a, u32 b) {
    hart_.x[7] = acc;
    hart_.x[5] = a;
    hart_.x[6] = b;
    rv::execute(rv::Decoded{.op = op, .rd = 7, .rs1 = 5, .rs2 = 6}, hart_, mem_);
    return hart_.x[7];
  }

  static double h(u32 reg, unsigned lane) { return F16::to_double_int(lane16(reg, lane)); }

  static u32 ref_cdotp(u32 acc, u32 a, u32 b, bool conj_a) {
    const double sim = conj_a ? -h(a, 1) : h(a, 1);
    const float re = static_cast<float>(h(a, 0) * h(b, 0) - sim * h(b, 1));
    const float im = static_cast<float>(h(a, 0) * h(b, 1) + sim * h(b, 0));
    return pack16(static_cast<u16>(F16::from_double_int(re + h(acc, 0))),
                  static_cast<u16>(F16::from_double_int(im + h(acc, 1))));
  }

  static u32 ref_dotpex_sh(u32 acc, u32 a, u32 b) {
    const double sum = h(a, 0) * h(b, 0) + h(a, 1) * h(b, 1) +
                       static_cast<double>(std::bit_cast<float>(acc));
    return std::bit_cast<u32>(static_cast<float>(sum));
  }

  static u32 ref_dotpex_hb(u32 acc, u32 a, u32 b) {
    double sum = h(acc, 0);
    for (unsigned i = 0; i < 4; ++i)
      sum += rv::Fp8::to_double_int(lane8(a, i)) * rv::Fp8::to_double_int(lane8(b, i));
    return static_cast<u32>(sign_extend(F16::from_double_int(sum), 16));
  }

  void check(u32 acc, u32 a, u32 b) {
    EXPECT_EQ(run(rv::Op::kVfcdotpH, acc, a, b), ref_cdotp(acc, a, b, false));
    EXPECT_EQ(run(rv::Op::kVfccdotpH, acc, a, b), ref_cdotp(acc, a, b, true));
    EXPECT_EQ(run(rv::Op::kVfdotpexSH, acc, a, b), ref_dotpex_sh(acc, a, b));
    EXPECT_EQ(run(rv::Op::kVfdotpexHB, acc, a, b), ref_dotpex_hb(acc, a, b));
  }

  rv::HartState hart_;
  tera::ClusterMemory mem_;
};

TEST_F(PackedFpDifferential, SpecialOperands) {
  // Zeros, subnormals, max normals, infinities and NaNs of both formats in
  // every lane position.
  const std::vector<u16> halves = {0x0000, 0x8000, 0x0001, 0x83FF, 0x0400, 0x3C00,
                                   0xBC00, 0x7BFF, 0xFBFF, 0x7C00, 0xFC00, 0x7E00,
                                   0xFD01, 0x3555, 0x5A00};
  std::vector<u32> regs;
  for (const u16 lo : halves)
    for (const u16 hi : halves) regs.push_back(pack16(lo, hi));
  for (const u32 a : regs)
    for (const u32 b : {regs[0], regs[17], regs[55], regs[101], regs[160], regs[224]})
      for (const u32 acc : {regs[0], regs[33], regs[128], regs[199]}) check(acc, a, b);
}

TEST_F(PackedFpDifferential, RandomOperands) {
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const u64 r = rng.next_u64();
    const u32 acc = static_cast<u32>(rng.next_u64());
    // Half the draws keep exponents small so sums stay finite and round.
    const u32 mask = (i & 1) ? 0xBFFFBFFFu : 0xFFFFFFFFu;
    check(acc & mask, static_cast<u32>(r) & mask, static_cast<u32>(r >> 32) & mask);
  }
}

}  // namespace
}  // namespace tsim::sf
