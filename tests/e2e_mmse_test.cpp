// End-to-end co-simulation tests: the full paper pipeline (bits -> QAM ->
// channel -> DUT detection -> demap -> BER), engine equivalence (ISS vs
// cycle-accurate model), and Monte-Carlo BER behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "phy/mmse.h"
#include "phy/quantize.h"
#include "sim/mc.h"
#include "softfloat/minifloat.h"
#include "uarch/cluster_sim.h"

namespace tsim::sim {
namespace {

using kern::MmseLayout;
using kern::Precision;

McConfig small_config(u32 ntx, u32 nrx, u32 qam, phy::ChannelType ch) {
  McConfig cfg;
  cfg.ntx = ntx;
  cfg.nrx = nrx;
  cfg.qam_order = qam;
  cfg.channel = ch;
  cfg.target_errors = 60;
  cfg.max_bits = 80'000;
  cfg.problems_per_core = 2;
  return cfg;
}

TEST(E2E, GoldenBerDecreasesWithSnr) {
  McRunner mc(small_config(4, 4, 16, phy::ChannelType::kAwgn));
  const auto low = mc.golden_point(6.0);
  const auto high = mc.golden_point(14.0);
  EXPECT_GT(low.ber, high.ber);
  EXPECT_GT(low.ber, 1e-4);
}

TEST(E2E, GoldenAwgn16QamMatchesTheory) {
  // Uncoded 16-QAM over AWGN at Es/N0 = 14 dB: BER ~ (3/8) erfc(sqrt(Es/N0 / 10))
  // ~ 9.3e-3 (identity-coupled MIMO behaves per-stream identically).
  McConfig cfg = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  cfg.target_errors = 150;
  cfg.max_bits = 600'000;
  McRunner mc(cfg);
  const auto p = mc.golden_point(14.0);
  EXPECT_GT(p.ber, 4e-3);
  EXPECT_LT(p.ber, 2e-2);
}

TEST(E2E, Dut16BitMatchesGoldenBerOnAwgn) {
  McConfig cfg = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  McRunner mc(cfg);
  const auto golden = mc.golden_point(10.0);
  const auto dut = mc.dut_point(Precision::k16WDotp, 10.0);
  ASSERT_GT(dut.bits, 0u);
  // Same operating point: BERs within a small factor of each other.
  EXPECT_LT(dut.ber, golden.ber * 2.5 + 1e-3);
  EXPECT_GT(dut.ber * 2.5 + 1e-3, golden.ber);
}

TEST(E2E, EightBitLosesToSixteenBit) {
  // Paper Fig. 9: the 8b variants suffer a visible BER penalty at high SNR.
  McConfig cfg = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  cfg.target_errors = 100;
  cfg.max_bits = 120'000;
  McRunner mc(cfg);
  const auto b16 = mc.dut_point(Precision::k16CDotp, 14.0);
  const auto b8 = mc.dut_point(Precision::k8Quarter, 14.0);
  EXPECT_GT(b8.ber, b16.ber);
}

TEST(E2E, DutSweepIsMonotonicallyImprovingOnAwgn) {
  McConfig cfg = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  cfg.target_errors = 50;
  McRunner mc(cfg);
  const auto pts = mc.dut_sweep(Precision::k16CDotp, {6.0, 12.0});
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_GT(pts[0].ber, pts[1].ber);
}

TEST(E2E, RayleighIsHarderThanAwgn) {
  McConfig awgn = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  McConfig ray = small_config(4, 4, 16, phy::ChannelType::kRayleigh);
  McRunner mc_a(awgn);
  McRunner mc_r(ray);
  const auto pa = mc_a.golden_point(12.0);
  const auto pr = mc_r.golden_point(12.0);
  EXPECT_GT(pr.ber, pa.ber);  // fully-loaded Rayleigh MMSE is interference-limited
}

TEST(E2E, IssAndUarchProduceIdenticalDetections) {
  // The two timing engines share semantics; their architectural results on
  // the same staged problem must match bit-for-bit.
  MmseLayout lay;
  lay.ntx = 4;
  lay.nrx = 4;
  lay.prec = Precision::k16WDotp;
  lay.num_cores = 4;
  lay.cluster = tera::TeraPoolConfig::tiny();
  const auto program = kern::build_mmse_program(lay);

  Rng rng(5150);
  phy::Channel ch(phy::ChannelType::kRayleigh, 4, 4);
  phy::QamModulator qam(16);
  const Batch batch = generate_batch(ch, qam, 4, 4, 12.0, rng);

  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(program);
  uarch::ClusterSim rtl(lay.cluster, uarch::UarchConfig{}, lay.num_cores);
  rtl.load_program(program);
  for (u32 c = 0; c < 4; ++c) {
    stage_problem(machine.memory(), lay, c, 0, batch.problems[c]);
    stage_problem(rtl.memory(), lay, c, 0, batch.problems[c]);
  }
  EXPECT_TRUE(machine.run().exited);
  EXPECT_TRUE(rtl.run().exited);
  for (u32 c = 0; c < 4; ++c) {
    const auto a = read_xhat(machine.memory(), lay, c, 0);
    const auto b = read_xhat(rtl.memory(), lay, c, 0);
    for (u32 i = 0; i < 4; ++i) EXPECT_EQ(a[i], b[i]) << "core " << c << " elem " << i;
  }
}

TEST(E2E, UarchCyclesExceedIssEstimate) {
  // Banshee underestimates cycles vs RTL (paper Fig. 7, negative errors):
  // the contention-aware model must report more cycles than the ISS.
  MmseLayout lay;
  lay.ntx = 8;
  lay.nrx = 8;
  lay.prec = Precision::k16Half;
  lay.num_cores = 8;
  lay.cluster = tera::TeraPoolConfig::tiny();
  const auto program = kern::build_mmse_program(lay);

  Rng rng(99);
  phy::Channel ch(phy::ChannelType::kRayleigh, 8, 8);
  phy::QamModulator qam(16);
  const Batch batch = generate_batch(ch, qam, 8, 8, 10.0, rng);

  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(program);
  uarch::ClusterSim rtl(lay.cluster, uarch::UarchConfig{}, lay.num_cores);
  rtl.load_program(program);
  for (u32 c = 0; c < 8; ++c) {
    stage_problem(machine.memory(), lay, c, 0, batch.problems[c]);
    stage_problem(rtl.memory(), lay, c, 0, batch.problems[c]);
  }
  machine.run();
  const auto rtl_result = rtl.run();
  EXPECT_GT(rtl_result.cycles, 0u);
  // The ISS estimate is first-order: the paper reports ~30% average error
  // vs RTL. At this small scale contention is negligible, so the two track
  // each other closely; assert the error stays inside the paper's band.
  const double err =
      std::abs(static_cast<double>(machine.estimated_cycles()) -
               static_cast<double>(rtl_result.cycles)) /
      static_cast<double>(rtl_result.cycles);
  EXPECT_LT(err, 0.35);
}

TEST(E2E, McRunnerSweepIsDeterministic) {
  McConfig cfg = small_config(4, 4, 16, phy::ChannelType::kAwgn);
  cfg.target_errors = 30;
  cfg.max_bits = 30'000;

  McRunner a(cfg);
  McRunner b(cfg);
  const auto sweep_a = a.dut_sweep(Precision::k16WDotp, {8.0, 12.0});
  const auto sweep_b = b.dut_sweep(Precision::k16WDotp, {8.0, 12.0});
  ASSERT_EQ(sweep_a.size(), sweep_b.size());
  for (size_t i = 0; i < sweep_a.size(); ++i) {
    EXPECT_EQ(sweep_a[i].errors, sweep_b[i].errors);
    EXPECT_EQ(sweep_a[i].bits, sweep_b[i].bits);
  }
}

TEST(E2E, StageAndReadBackRoundTrip) {
  MmseLayout lay;
  lay.ntx = 4;
  lay.nrx = 4;
  lay.prec = Precision::k16Half;
  lay.num_cores = 2;
  lay.cluster = tera::TeraPoolConfig::tiny();
  tera::ClusterMemory mem(lay.cluster);
  MimoProblem prob;
  prob.h = phy::CMat(4, 4);
  for (u32 r = 0; r < 4; ++r)
    for (u32 c = 0; c < 4; ++c) prob.h.at(r, c) = phy::cd(r * 1.0, c * 0.5);
  prob.y = {phy::cd(1, 2), phy::cd(3, 4), phy::cd(5, 6), phy::cd(7, 8)};
  prob.sigma2 = 0.125;
  stage_problem(mem, lay, 1, 0, prob);
  // H is staged column-major: word k of column c holds H[k][c] as cf16.
  std::vector<u8> raw(4);
  mem.host_read(lay.h_addr(1, 0) + (1 * 4 + 2) * 4, raw);  // column 1, row 2
  const phy::cd v = phy::read_cf16(raw.data());
  EXPECT_DOUBLE_EQ(v.real(), 2.0);   // H[2][1].re
  EXPECT_DOUBLE_EQ(v.imag(), 0.5);   // H[2][1].im
  // sigma^2 survives the fp16 round trip exactly (power of two).
  std::vector<u8> sraw(2);
  mem.host_read(lay.sigma_addr(1, 0), sraw);
  EXPECT_DOUBLE_EQ(sf::F16::to_double(static_cast<u16>(sraw[0] | (sraw[1] << 8))),
                   0.125);
}

}  // namespace
}  // namespace tsim::sim
