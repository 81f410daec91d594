// Multi-threaded host path coverage: Machine::run_threads must be
// functionally and cycle-wise bit-identical to the deterministic
// single-thread round-robin run(), for any host thread count, and
// McRunner(host_threads > 1) must reproduce the single-threaded BER points
// exactly for the same seed (machine.h's host-scheduling-independence
// contract).
#include <gtest/gtest.h>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "sim/cosim.h"
#include "sim/mc.h"

namespace tsim::sim {
namespace {

using kern::MmseLayout;
using kern::Precision;

/// A 4x4 16-bit MMSE layout, one problem per core, on the tiny cluster.
MmseLayout tiny_layout(u32 num_cores) {
  MmseLayout lay;
  lay.ntx = 4;
  lay.nrx = 4;
  lay.prec = Precision::k16CDotp;
  lay.problems_per_core = 1;
  lay.num_cores = num_cores;
  lay.cluster = tera::TeraPoolConfig::tiny();
  lay.validate();
  return lay;
}

Batch staged_batch(iss::Machine& machine, const MmseLayout& lay, u64 seed) {
  Rng rng(seed);
  phy::Channel ch(phy::ChannelType::kRayleigh, lay.nrx, lay.ntx);
  phy::QamModulator qam(16);
  Batch batch = generate_batch(ch, qam, lay.ntx, lay.num_cores, 12.0, rng);
  for (u32 c = 0; c < lay.num_cores; ++c) {
    stage_problem(machine.memory(), lay, c, 0, batch.problems[c]);
  }
  return batch;
}

TEST(Threading, RunThreadsMatchesRunBitForBitAndCycleForCycle) {
  const MmseLayout lay = tiny_layout(8);
  const auto program = kern::build_mmse_program(lay);

  iss::Machine reference(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  reference.load_program(program);
  staged_batch(reference, lay, 42);
  ASSERT_TRUE(reference.run().exited);

  for (const u32 threads : {2u, 3u, 8u}) {
    iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
    machine.load_program(program);
    staged_batch(machine, lay, 42);
    const auto result = machine.run_threads(threads);
    ASSERT_TRUE(result.exited) << threads << " threads";
    EXPECT_FALSE(result.deadlock);
    // Architectural results match exactly.
    for (u32 c = 0; c < lay.num_cores; ++c) {
      EXPECT_EQ(read_xhat(machine.memory(), lay, c, 0),
                read_xhat(reference.memory(), lay, c, 0))
          << threads << " threads, core " << c;
    }
    // Per-hart cycle estimates agree up to the barrier-wake jitter (see
    // machine.h): which hart timestamps the wake is resolved by the
    // physical race, so allow a small relative tolerance.
    for (u32 h = 0; h < machine.num_harts(); ++h) {
      const double a = static_cast<double>(machine.hart(h).cycles());
      const double b = static_cast<double>(reference.hart(h).cycles());
      EXPECT_NEAR(a, b, 0.01 * b) << threads << " threads, hart " << h;
    }
    const double est = static_cast<double>(reference.estimated_cycles());
    EXPECT_NEAR(static_cast<double>(machine.estimated_cycles()), est, 0.01 * est);
  }
}

TEST(Threading, RunThreadsClampsThreadCountAboveHartCount) {
  const MmseLayout lay = tiny_layout(8);
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(kern::build_mmse_program(lay));
  staged_batch(machine, lay, 7);
  const auto result = machine.run_threads(1000);  // clamped to num_harts
  EXPECT_TRUE(result.exited);
  EXPECT_FALSE(result.deadlock);
}

// The superblock fast path (translation.h) must be bit- and cycle-identical
// to the per-instruction reference path. Setting a (no-op) trace hook forces
// the reference path, which performs one translation-cache lookup per
// instruction and ignores the precomputed run lengths entirely, so this
// exercises the superblock boundary computation end to end on a real
// barrier-synchronized MMSE workload.
TEST(Threading, SuperblockFastPathMatchesPerInstructionReference) {
  const MmseLayout lay = tiny_layout(8);
  const auto program = kern::build_mmse_program(lay);

  iss::Machine fast(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  fast.load_program(program);
  staged_batch(fast, lay, 99);
  const auto rf = fast.run();
  ASSERT_TRUE(rf.exited);

  iss::Machine ref(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  ref.set_trace([](u32, u32, const rv::Decoded&) {});
  ref.load_program(program);
  staged_batch(ref, lay, 99);
  const auto rr = ref.run();
  ASSERT_TRUE(rr.exited);

  EXPECT_EQ(rf.exit_code, rr.exit_code);
  EXPECT_EQ(rf.instructions, rr.instructions);
  for (u32 c = 0; c < lay.num_cores; ++c) {
    EXPECT_EQ(read_xhat(fast.memory(), lay, c, 0), read_xhat(ref.memory(), lay, c, 0))
        << "core " << c;
  }
  for (u32 h = 0; h < fast.num_harts(); ++h) {
    EXPECT_EQ(fast.hart(h).cycles(), ref.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).instructions(), ref.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).raw_stall_cycles, ref.hart(h).raw_stall_cycles)
        << "hart " << h;
    EXPECT_EQ(fast.hart(h).wfi_stall_cycles, ref.hart(h).wfi_stall_cycles)
        << "hart " << h;
  }
  EXPECT_EQ(fast.estimated_cycles(), ref.estimated_cycles());
}

// The SPMD convergence-batch dispatch (machine.h) must be bit- and
// cycle-identical to the serial superblock path on the real barrier-
// synchronized MMSE workload - registers, detections, cycles, and stall
// accounting (the serial path is the oracle; the traced reference path is
// its oracle in turn, covered above).
TEST(Threading, BatchedDispatchMatchesSerialOnMmseWorkload) {
  const MmseLayout lay = tiny_layout(8);
  const auto program = kern::build_mmse_program(lay);

  iss::Machine batched(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  ASSERT_TRUE(batched.batching());  // default on
  batched.load_program(program);
  staged_batch(batched, lay, 99);
  const auto rb = batched.run();
  ASSERT_TRUE(rb.exited);

  iss::Machine serial(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  serial.set_batching(false);
  serial.load_program(program);
  staged_batch(serial, lay, 99);
  const auto rs = serial.run();
  ASSERT_TRUE(rs.exited);

  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  for (u32 c = 0; c < lay.num_cores; ++c) {
    EXPECT_EQ(read_xhat(batched.memory(), lay, c, 0),
              read_xhat(serial.memory(), lay, c, 0))
        << "core " << c;
  }
  for (u32 h = 0; h < batched.num_harts(); ++h) {
    EXPECT_EQ(batched.hart(h).cycles(), serial.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(batched.hart(h).instructions(), serial.hart(h).instructions())
        << "hart " << h;
    EXPECT_EQ(batched.hart(h).raw_stall_cycles, serial.hart(h).raw_stall_cycles)
        << "hart " << h;
    EXPECT_EQ(batched.hart(h).wfi_stall_cycles, serial.hart(h).wfi_stall_cycles)
        << "hart " << h;
    EXPECT_EQ(batched.hart(h).state.x, serial.hart(h).state.x) << "hart " << h;
  }
  EXPECT_EQ(batched.estimated_cycles(), serial.estimated_cycles());
  // Most instructions took the lockstep path on this SPMD workload.
  EXPECT_GT(batched.batch_stats().lockstep_fraction(), 0.5);
  EXPECT_EQ(serial.batch_stats().batches, 0u);
}

// A convergence group spanning a run_threads shard boundary must simply
// split at it: batches form per shard (width capped by the shard size),
// functional results stay bit-identical to run(), and a single shard is
// exactly equivalent to its serial self.
TEST(Threading, RunThreadsShardBoundarySplitsConvergenceGroup) {
  const MmseLayout lay = tiny_layout(2 * iss::Machine::kMinBatchWidth);
  const auto program = kern::build_mmse_program(lay);

  iss::Machine reference(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  reference.set_batching(false);
  reference.load_program(program);
  staged_batch(reference, lay, 123);
  ASSERT_TRUE(reference.run().exited);

  // Two shards of eight harts: the sixteen-wide convergence group splits.
  iss::Machine sharded(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  sharded.load_program(program);
  staged_batch(sharded, lay, 123);
  const auto rt = sharded.run_threads(2);
  ASSERT_TRUE(rt.exited);
  EXPECT_FALSE(rt.deadlock);
  for (u32 c = 0; c < lay.num_cores; ++c) {
    EXPECT_EQ(read_xhat(sharded.memory(), lay, c, 0),
              read_xhat(reference.memory(), lay, c, 0))
        << "core " << c;
  }
  const auto& stats = sharded.batch_stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.width_max, iss::Machine::kMinBatchWidth);  // never wider than a shard
  // Cycle estimates agree up to the documented barrier-wake jitter.
  for (u32 h = 0; h < sharded.num_harts(); ++h) {
    const double a = static_cast<double>(sharded.hart(h).cycles());
    const double b = static_cast<double>(reference.hart(h).cycles());
    EXPECT_NEAR(a, b, 0.01 * b) << "hart " << h;
  }

  // One shard: run_threads(1) batched vs serial is exactly equal (no
  // cross-thread wake races exist to jitter the timestamps).
  iss::Machine one_batched(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  one_batched.load_program(program);
  staged_batch(one_batched, lay, 123);
  ASSERT_TRUE(one_batched.run_threads(1).exited);
  iss::Machine one_serial(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  one_serial.set_batching(false);
  one_serial.load_program(program);
  staged_batch(one_serial, lay, 123);
  ASSERT_TRUE(one_serial.run_threads(1).exited);
  for (u32 h = 0; h < one_batched.num_harts(); ++h) {
    EXPECT_EQ(one_batched.hart(h).cycles(), one_serial.hart(h).cycles())
        << "hart " << h;
    EXPECT_EQ(one_batched.hart(h).instructions(), one_serial.hart(h).instructions())
        << "hart " << h;
    EXPECT_EQ(one_batched.hart(h).raw_stall_cycles, one_serial.hart(h).raw_stall_cycles)
        << "hart " << h;
    EXPECT_EQ(one_batched.hart(h).wfi_stall_cycles, one_serial.hart(h).wfi_stall_cycles)
        << "hart " << h;
  }
  EXPECT_GT(one_batched.batch_stats().batches, 0u);
}

TEST(Threading, McRunnerHostThreadsProduceBitIdenticalBerPoints) {
  McConfig cfg;
  cfg.ntx = 4;
  cfg.nrx = 4;
  cfg.qam_order = 16;
  cfg.channel = phy::ChannelType::kRayleigh;
  cfg.target_errors = 50;
  cfg.max_bits = 60'000;
  cfg.problems_per_core = 2;

  McRunner single(cfg);
  const BerPoint ref = single.dut_point(Precision::k16CDotp, 10.0);
  ASSERT_GT(ref.bits, 0u);

  for (const u32 threads : {2u, 4u}) {
    McConfig threaded_cfg = cfg;
    threaded_cfg.host_threads = threads;
    McRunner threaded(threaded_cfg);
    const BerPoint p = threaded.dut_point(Precision::k16CDotp, 10.0);
    EXPECT_EQ(p.bits, ref.bits) << threads << " host threads";
    EXPECT_EQ(p.errors, ref.errors) << threads << " host threads";
    EXPECT_DOUBLE_EQ(p.ber, ref.ber) << threads << " host threads";
  }
}

TEST(Threading, McRunnerMultiThreadSweepIsDeterministic) {
  McConfig cfg;
  cfg.ntx = 4;
  cfg.nrx = 4;
  cfg.qam_order = 16;
  cfg.channel = phy::ChannelType::kAwgn;
  cfg.target_errors = 30;
  cfg.max_bits = 30'000;
  cfg.host_threads = 4;

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

}  // namespace
}  // namespace tsim::sim
