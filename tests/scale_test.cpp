// Full-scale smoke tests: the complete 1024-core TeraPool configuration
// (the paper's DUT) running the parallel MMSE on the fast ISS, plus capacity
// boundaries. Slower than unit tests by
// design (a few seconds total).
#include <gtest/gtest.h>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "kernels/profile.h"
#include "phy/mmse.h"
#include "sim/cosim.h"

namespace tsim {
namespace {

using kern::MmseLayout;
using kern::Precision;

MmseLayout full_layout(u32 n, Precision prec, u32 cores) {
  MmseLayout lay;
  lay.ntx = n;
  lay.nrx = n;
  lay.prec = prec;
  lay.num_cores = cores;
  lay.cluster = tera::TeraPoolConfig::full();
  lay.validate();
  return lay;
}

sim::Batch make_batch(u32 n, u32 problems, u64 seed) {
  Rng rng(seed);
  phy::Channel ch(phy::ChannelType::kRayleigh, n, n);
  phy::QamModulator qam(16);
  return sim::generate_batch(ch, qam, n, problems, 14.0, rng);
}

TEST(Scale, Full1024CoreParallelMmseCompletes) {
  // The paper's headline configuration: 1024 independent 4x4 problems, one
  // per core, with the fork-join barrier across all 1024 harts.
  const auto lay = full_layout(4, Precision::k16CDotp, 1024);
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, 1024);
  machine.load_program(kern::build_mmse_program(lay));
  const auto batch = make_batch(4, 1024, 77);
  for (u32 c = 0; c < 1024; ++c)
    sim::stage_problem(machine.memory(), lay, c, 0, batch.problems[c]);

  const auto res = machine.run();
  EXPECT_TRUE(res.exited);
  EXPECT_FALSE(res.deadlock);
  EXPECT_GT(res.instructions, 1024u * 500);

  // Spot-check detections across the cluster against the golden model.
  for (const u32 c : {0u, 1u, 511u, 1023u}) {
    const auto& p = batch.problems[c];
    const auto golden = phy::mmse_detect(p.h, p.y, p.sigma2);
    const auto dut = sim::read_xhat(machine.memory(), lay, c, 0);
    for (u32 i = 0; i < 4; ++i) {
      EXPECT_LT(std::abs(dut[i] - golden[i]), 0.15) << "core " << c << " elem " << i;
    }
  }
  // Every core produced a profile.
  for (const u32 c : {0u, 1023u}) {
    EXPECT_GT(kern::read_profile(machine.memory(), lay, c).total, 0u);
  }
}

TEST(Scale, LargestMimoAtMaxFittingCores) {
  // 32x32 at the L1 capacity limit (see EXPERIMENTS.md: 1024 cores do not fit).
  const u32 fit = MmseLayout::max_parallel_cores(tera::TeraPoolConfig::full(), 32, 32,
                                                 Precision::k16WDotp);
  ASSERT_GT(fit, 128u);
  ASSERT_LT(fit, 1024u);
  const auto lay = full_layout(32, Precision::k16WDotp, 64);  // bounded runtime
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, 64);
  machine.load_program(kern::build_mmse_program(lay));
  const auto batch = make_batch(32, 64, 78);
  for (u32 c = 0; c < 64; ++c)
    sim::stage_problem(machine.memory(), lay, c, 0, batch.problems[c]);
  const auto res = machine.run();
  EXPECT_TRUE(res.exited);
  const auto& p = batch.problems[63];
  const auto golden = phy::mmse_detect(p.h, p.y, p.sigma2);
  const auto dut = sim::read_xhat(machine.memory(), lay, 63, 0);
  double worst = 0;
  for (u32 i = 0; i < 32; ++i) worst = std::max(worst, std::abs(dut[i] - golden[i]));
  EXPECT_LT(worst, 0.5);  // fp16 on a 32x32 Rayleigh problem
}

TEST(Scale, BatchedAndParallelModesAgreeBitExactly) {
  // The same problems solved (a) batched on one core and (b) one-per-core
  // must produce bit-identical fp16 results: the kernels are deterministic
  // and layout-independent.
  const u32 n = 8, count = 8;
  const auto batch = make_batch(n, count, 79);

  MmseLayout batched = full_layout(n, Precision::k16WDotp, 1);
  batched.problems_per_core = count;
  batched.validate();
  iss::Machine mb(batched.cluster, iss::TimingConfig{}, 1);
  mb.load_program(kern::build_mmse_program(batched));
  for (u32 p = 0; p < count; ++p)
    sim::stage_problem(mb.memory(), batched, 0, p, batch.problems[p]);
  ASSERT_TRUE(mb.run().exited);

  const auto parallel = full_layout(n, Precision::k16WDotp, count);
  iss::Machine mp(parallel.cluster, iss::TimingConfig{}, count);
  mp.load_program(kern::build_mmse_program(parallel));
  for (u32 c = 0; c < count; ++c)
    sim::stage_problem(mp.memory(), parallel, c, 0, batch.problems[c]);
  ASSERT_TRUE(mp.run().exited);

  for (u32 p = 0; p < count; ++p) {
    const auto a = sim::read_xhat(mb.memory(), batched, 0, p);
    const auto b = sim::read_xhat(mp.memory(), parallel, p, 0);
    for (u32 i = 0; i < n; ++i) EXPECT_EQ(a[i], b[i]) << "problem " << p;
  }
}

}  // namespace
}  // namespace tsim
