// Kernel generator tests: layout arithmetic, program structure, and the
// numerical correctness of every precision variant against the double-
// precision golden model on the emulated DUT.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "phy/mmse.h"
#include "phy/quantize.h"
#include "rv/disasm.h"
#include "sim/cosim.h"

namespace tsim::kern {
namespace {

using phy::cd;

MmseLayout make_layout(u32 ntx, u32 nrx, Precision prec, u32 cores = 1,
                       u32 problems = 1) {
  MmseLayout lay;
  lay.ntx = ntx;
  lay.nrx = nrx;
  lay.prec = prec;
  lay.num_cores = cores;
  lay.problems_per_core = problems;
  lay.cluster = tera::TeraPoolConfig::tiny();
  return lay;
}

TEST(Layout, AddressesAreDisjointAndOrdered) {
  const MmseLayout lay = make_layout(4, 4, Precision::k16Half, 4, 2);
  lay.validate();
  // Problem blocks tile the input region without overlap.
  for (u32 c = 0; c < 4; ++c) {
    for (u32 p = 0; p < 2; ++p) {
      const u32 base = lay.problem_base(c, p);
      EXPECT_EQ(lay.h_addr(c, p), base);
      EXPECT_LT(lay.y_addr(c, p), lay.sigma_addr(c, p));
      EXPECT_LT(lay.sigma_addr(c, p), lay.x_addr(c, p));
      EXPECT_LE(lay.x_addr(c, p) + lay.x_bytes(), base + lay.problem_bytes());
    }
  }
  // Scratch starts above all inputs.
  EXPECT_GE(lay.scratch_region_base(),
            lay.problem_base(3, 1) + lay.problem_bytes());
  // Per-core scratch blocks are disjoint.
  EXPECT_GE(lay.scratch_base(1), lay.stack_top(0));
}

TEST(Layout, EightBitInputsAreHalfTheSize) {
  const MmseLayout h16 = make_layout(8, 8, Precision::k16Half);
  const MmseLayout q8 = make_layout(8, 8, Precision::k8Quarter);
  EXPECT_EQ(q8.h_bytes() * 2, h16.h_bytes());
  EXPECT_EQ(q8.y_bytes() * 2, h16.y_bytes());
  // Scratch (fp16 intermediates) is the same size.
  EXPECT_EQ(q8.g_bytes(), h16.g_bytes());
}

TEST(Layout, OverflowIsRejected) {
  MmseLayout lay = make_layout(32, 32, Precision::k16Half, 16, 64);
  EXPECT_THROW(lay.validate(), SimError);
}

TEST(Layout, MaxParallelCoresFitsL1) {
  const auto cluster = tera::TeraPoolConfig::full();
  const u32 fit = MmseLayout::max_parallel_cores(cluster, 32, 32, Precision::k16Half);
  EXPECT_GT(fit, 0u);
  EXPECT_LT(fit, 1024u);  // 32x32 cannot fit 1024 problems (see EXPERIMENTS.md)
  const u32 fit4 = MmseLayout::max_parallel_cores(cluster, 4, 4, Precision::k16Half);
  EXPECT_EQ(fit4, 1024u);  // 4x4 does fit the full cluster
  MmseLayout lay = make_layout(32, 32, Precision::k16Half, fit);
  lay.cluster = cluster;
  lay.validate();
}

TEST(Program, HasAllKernelSymbols) {
  const auto program = build_mmse_program(make_layout(4, 4, Precision::k16Half));
  for (const char* sym :
       {"_start", "main", "barrier", "gram", "mvm", "chol", "fsolve", "bsolve"}) {
    EXPECT_TRUE(program.symbols.contains(sym)) << sym;
  }
  EXPECT_GT(program.words.size(), 100u);
}

TEST(Program, EveryWordDecodes) {
  for (const Precision p : kAllPrecisions) {
    const auto program = build_mmse_program(make_layout(4, 4, p));
    for (size_t i = 0; i < program.words.size(); ++i) {
      EXPECT_NE(rv::decode(program.words[i]).op, rv::Op::kInvalid)
          << name_of(p) << " word " << i << ": " << rv::disassemble_word(program.words[i]);
    }
  }
}

TEST(Program, PrecisionsUseTheirSignatureInstructions) {
  const auto uses = [](const rvasm::Program& prog, rv::Op op) {
    for (const u32 w : prog.words)
      if (rv::decode(w).op == op) return true;
    return false;
  };
  const auto p_half = build_mmse_program(make_layout(4, 4, Precision::k16Half));
  EXPECT_TRUE(uses(p_half, rv::Op::kFmaddH));
  EXPECT_FALSE(uses(p_half, rv::Op::kVfdotpexSH));

  const auto p_wdotp = build_mmse_program(make_layout(4, 4, Precision::k16WDotp));
  EXPECT_TRUE(uses(p_wdotp, rv::Op::kVfdotpexSH));
  EXPECT_TRUE(uses(p_wdotp, rv::Op::kPvShuffleH));

  const auto p_cdotp = build_mmse_program(make_layout(4, 4, Precision::k16CDotp));
  EXPECT_TRUE(uses(p_cdotp, rv::Op::kVfcdotpH));
  EXPECT_TRUE(uses(p_cdotp, rv::Op::kVfccdotpH));

  const auto p_q8 = build_mmse_program(make_layout(4, 4, Precision::k8Quarter));
  EXPECT_TRUE(uses(p_q8, rv::Op::kVfmacB));
  EXPECT_TRUE(uses(p_q8, rv::Op::kVfcvtHB));

  const auto p_w8 = build_mmse_program(make_layout(4, 4, Precision::k8WDotp));
  EXPECT_TRUE(uses(p_w8, rv::Op::kVfdotpexHB));
}

TEST(Program, HalfLoadsScalarWDotpLoadsPacked) {
  // The paper: 16bHalf performs twice the memory operations (separate re/im
  // halfword loads); the SIMD variants load packed words.
  const auto count = [](const rvasm::Program& prog, rv::Op op) {
    size_t n = 0;
    for (const u32 w : prog.words)
      if (rv::decode(w).op == op) ++n;
    return n;
  };
  const auto p_half = build_mmse_program(make_layout(4, 4, Precision::k16Half));
  const auto p_wdotp = build_mmse_program(make_layout(4, 4, Precision::k16WDotp));
  EXPECT_GT(count(p_half, rv::Op::kPLh), 2 * count(p_half, rv::Op::kPLw));
  EXPECT_GT(count(p_wdotp, rv::Op::kPLw), count(p_wdotp, rv::Op::kPLh));
}

// ---------------------------------------------------------------------------
// Numerical correctness: run the generated program on the ISS and compare
// against the double-precision golden detector.
// ---------------------------------------------------------------------------

struct DutResult {
  std::vector<cd> xhat;
  u64 instructions = 0;
};

DutResult run_dut(const MmseLayout& lay, const sim::MimoProblem& prob) {
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(build_mmse_program(lay));
  sim::stage_problem(machine.memory(), lay, 0, 0, prob);
  const auto r = machine.run();
  EXPECT_TRUE(r.exited) << "DUT did not exit";
  EXPECT_FALSE(r.deadlock);
  return {sim::read_xhat(machine.memory(), lay, 0, 0), machine.total_instructions()};
}

sim::MimoProblem random_problem(u32 ntx, u32 nrx, double snr_db, u64 seed,
                                phy::ChannelType type = phy::ChannelType::kRayleigh) {
  Rng rng(seed);
  phy::Channel ch(type, nrx, ntx);
  phy::QamModulator qam(16);
  std::vector<u8> bits(ntx * qam.bits_per_symbol());
  for (auto& b : bits) b = rng.bit() ? 1 : 0;
  const auto syms = qam.map_sequence(bits);
  sim::MimoProblem prob;
  prob.h = ch.realize(rng);
  prob.sigma2 = phy::Channel::sigma2_from_snr_db(snr_db);
  prob.y = ch.transmit(prob.h, syms, prob.sigma2, rng);
  return prob;
}

double max_rel_error(const std::vector<cd>& dut, const std::vector<cd>& golden) {
  double worst = 0.0;
  for (size_t i = 0; i < golden.size(); ++i) {
    const double scale = std::max(0.25, std::abs(golden[i]));
    worst = std::max(worst, std::abs(dut[i] - golden[i]) / scale);
  }
  return worst;
}

class PrecisionAccuracy : public ::testing::TestWithParam<Precision> {};

TEST_P(PrecisionAccuracy, MatchesGoldenOn4x4) {
  const Precision prec = GetParam();
  const MmseLayout lay = make_layout(4, 4, prec);
  const auto prob = random_problem(4, 4, 15.0, 1234);
  const auto dut = run_dut(lay, prob);
  const auto golden = phy::mmse_detect(prob.h, prob.y, prob.sigma2);
  ASSERT_EQ(dut.xhat.size(), golden.size());
  // fp16 variants track the golden model closely. The fp8 variants use the
  // paper's 2-bit-mantissa format: on Rayleigh-conditioned problems their
  // Gram truncation produces large (but finite, roughly-oriented) errors -
  // this is precisely the Fig. 9/10 BER degradation - so only a sanity
  // bound applies here; the tight AWGN-conditioned check is below.
  const bool is8b = (prec == Precision::k8Quarter || prec == Precision::k8WDotp);
  const double tol = is8b ? 1.0 : 0.05;
  EXPECT_LT(max_rel_error(dut.xhat, golden), tol) << name_of(prec);
}

TEST_P(PrecisionAccuracy, MatchesGoldenOn8x8Awgn) {
  const Precision prec = GetParam();
  const MmseLayout lay = make_layout(8, 8, prec);
  const auto prob = random_problem(8, 8, 18.0, 777, phy::ChannelType::kAwgn);
  const auto dut = run_dut(lay, prob);
  const auto golden = phy::mmse_detect(prob.h, prob.y, prob.sigma2);
  const bool is8b = (prec == Precision::k8Quarter || prec == Precision::k8WDotp);
  EXPECT_LT(max_rel_error(dut.xhat, golden), is8b ? 0.75 : 0.05) << name_of(prec);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, PrecisionAccuracy,
                         ::testing::ValuesIn(kAllPrecisions),
                         [](const auto& info) {
                           return std::string(name_of(info.param));
                         });

TEST(KernelNumerics, SixteenBitTracksGoldenAcrossSizes) {
  for (const u32 n : {4u, 8u, 16u}) {
    const MmseLayout lay = make_layout(n, n, Precision::k16CDotp);
    const auto prob = random_problem(n, n, 12.0, 99 + n);
    const auto dut = run_dut(lay, prob);
    const auto golden = phy::mmse_detect(prob.h, prob.y, prob.sigma2);
    EXPECT_LT(max_rel_error(dut.xhat, golden), 0.15) << "n=" << n;
  }
}

TEST(KernelNumerics, UnrolledAndLoopedKernelsAgreeBitExactly) {
  const auto prob = random_problem(8, 8, 10.0, 4242);
  MmseLayout lay = make_layout(8, 8, Precision::k16WDotp);

  iss::Machine full(lay.cluster, iss::TimingConfig{}, 1);
  full.load_program(build_mmse_program(lay, {.gram_unroll = 0}));
  sim::stage_problem(full.memory(), lay, 0, 0, prob);
  EXPECT_TRUE(full.run().exited);

  iss::Machine looped(lay.cluster, iss::TimingConfig{}, 1);
  looped.load_program(build_mmse_program(lay, {.gram_unroll = 2}));
  sim::stage_problem(looped.memory(), lay, 0, 0, prob);
  EXPECT_TRUE(looped.run().exited);

  const auto a = sim::read_xhat(full.memory(), lay, 0, 0);
  const auto b = sim::read_xhat(looped.memory(), lay, 0, 0);
  for (u32 i = 0; i < 8; ++i) EXPECT_EQ(a[i], b[i]);
  // The unrolled variant retires fewer instructions (no loop bookkeeping).
  EXPECT_LT(full.total_instructions(), looped.total_instructions());
}

TEST(KernelNumerics, InstructionCountOrderingMatchesPaper) {
  // Per paper Fig. 7/8: 16bHalf issues the most instructions; the SIMD
  // variants reduce the count (16bCDotp the fewest among 16-bit kernels).
  const auto prob = random_problem(16, 16, 12.0, 31);
  const auto count_for = [&](Precision p) {
    const MmseLayout lay = make_layout(16, 16, p);
    return run_dut(lay, prob).instructions;
  };
  const u64 n_half = count_for(Precision::k16Half);
  const u64 n_wdotp = count_for(Precision::k16WDotp);
  const u64 n_cdotp = count_for(Precision::k16CDotp);
  const u64 n_w8 = count_for(Precision::k8WDotp);
  EXPECT_GT(n_half, n_wdotp);
  EXPECT_GT(n_wdotp, n_cdotp);
  EXPECT_GT(n_half, n_w8);
}

TEST(KernelNumerics, BatchedModeSolvesEveryProblem) {
  MmseLayout lay = make_layout(4, 4, Precision::k16CDotp, 1, 6);
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, 1);
  machine.load_program(build_mmse_program(lay));
  std::vector<sim::MimoProblem> probs;
  for (u32 p = 0; p < 6; ++p) {
    probs.push_back(random_problem(4, 4, 14.0, 1000 + p));
    sim::stage_problem(machine.memory(), lay, 0, p, probs.back());
  }
  EXPECT_TRUE(machine.run().exited);
  for (u32 p = 0; p < 6; ++p) {
    const auto golden = phy::mmse_detect(probs[p].h, probs[p].y, probs[p].sigma2);
    const auto dut = sim::read_xhat(machine.memory(), lay, 0, p);
    EXPECT_LT(max_rel_error(dut, golden), 0.1) << "problem " << p;
  }
}

TEST(KernelNumerics, ParallelModeSolvesPerCoreProblems) {
  MmseLayout lay = make_layout(4, 4, Precision::k16WDotp, 8, 1);
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, 8);
  machine.load_program(build_mmse_program(lay));
  std::vector<sim::MimoProblem> probs;
  for (u32 c = 0; c < 8; ++c) {
    probs.push_back(random_problem(4, 4, 14.0, 2000 + c));
    sim::stage_problem(machine.memory(), lay, c, 0, probs.back());
  }
  EXPECT_TRUE(machine.run().exited);
  for (u32 c = 0; c < 8; ++c) {
    const auto golden = phy::mmse_detect(probs[c].h, probs[c].y, probs[c].sigma2);
    const auto dut = sim::read_xhat(machine.memory(), lay, c, 0);
    EXPECT_LT(max_rel_error(dut, golden), 0.1) << "core " << c;
  }
}

}  // namespace
}  // namespace tsim::kern
