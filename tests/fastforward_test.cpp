// Event-driven fast-forward tests: scheduler batch shrink bit-exactness
// (cycles/reloads/detections identical, strictly fewer host-retired
// instructions), the MAC cell's quiescent-TTI skip, and DSE warm-started
// points equalling cold-run points bit-exactly.
#include <gtest/gtest.h>

#include "dse/space.h"
#include "dse/sweep.h"
#include "mac/cell.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"
#include "tera/config.h"

namespace tsim {
namespace {

// ---- ran::SlotScheduler batch shrink ----

ran::TrafficConfig partial_traffic() {
  ran::TrafficConfig cfg;
  cfg.carrier.bandwidth_hz = 0.25e6;  // 8 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.groups = {ran::UeGroup{"embb", 4, 4, 16, 12.0,
                             phy::ChannelType::kRayleigh, 1.0}};
  cfg.seed = 0xFF5EED;
  return cfg;
}

ran::ClusterPoolConfig shrink_pool(bool fast_forward) {
  ran::ClusterPoolConfig cfg;
  cfg.num_clusters = 1;
  cfg.host_threads = 1;
  cfg.cluster = tera::TeraPoolConfig::tiny();
  cfg.problems_per_core = 2;
  cfg.batch_cores = 8;  // capacity 16 > the 8-problem allocations: every
                        // batch is partially filled and eligible to shrink
  cfg.fast_forward = fast_forward;
  return cfg;
}

TEST(FastForwardScheduler, ShrunkBatchesKeepModeledAccountingBitExact) {
  ran::TrafficGenerator gen(partial_traffic());
  ran::SlotScheduler slow(shrink_pool(false), partial_traffic().groups);
  ran::SlotScheduler fast(shrink_pool(true), partial_traffic().groups);

  u64 slow_instr = 0, fast_instr = 0;
  for (u64 tti = 0; tti < 4; ++tti) {
    const ran::SlotWorkload slot = gen.slot(tti);
    const ran::SlotResult a = slow.run_slot(slot);
    const ran::SlotResult b = fast.run_slot(slot);

    // Everything modeled is identical...
    EXPECT_EQ(a.slot_cycles, b.slot_cycles) << "tti " << tti;
    EXPECT_EQ(a.total_reloads, b.total_reloads) << "tti " << tti;
    EXPECT_EQ(a.total_reload_cycles, b.total_reload_cycles) << "tti " << tti;
    EXPECT_EQ(a.cluster_busy_cycles, b.cluster_busy_cycles) << "tti " << tti;
    EXPECT_EQ(a.allocation_errors, b.allocation_errors) << "tti " << tti;
    EXPECT_EQ(a.detected_bits, b.detected_bits) << "tti " << tti;
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].cycles, b.trace[i].cycles) << "batch " << i;
      EXPECT_EQ(a.trace[i].reloads, b.trace[i].reloads) << "batch " << i;
    }
    slow_instr += a.total_instructions;
    fast_instr += b.total_instructions;
  }

  // ...while the host retired strictly less work on the shrunk variants.
  const ran::SlotScheduler::FastForwardStats off = slow.fast_forward_stats();
  const ran::SlotScheduler::FastForwardStats on = fast.fast_forward_stats();
  EXPECT_EQ(off.shrunk_batches, 0u);
  EXPECT_GT(on.shrunk_batches, 0u);
  EXPECT_LT(on.cores_run, on.cores_full);
  EXPECT_LT(fast_instr, slow_instr);
}

// Wide-cluster regression: at 128 cores the full run's critical path is the
// barrier WAKER's post-broadcast tail, not hart 0's exit path, and the 2x4
// geometry's scratch base crosses an li-expansion boundary between the
// 128-core and 4-core layouts. Both skewed the shrunk estimate by a few
// cycles until variants switched to MmseLayout::active_cores (full layout
// text, parked tail) - this pins that construction.
TEST(FastForwardScheduler, WideClusterWakerTailStaysBitExact) {
  ran::TrafficConfig tcfg;
  tcfg.carrier.bandwidth_hz = 0.25e6;  // 8 subcarriers
  tcfg.carrier.symbols_per_slot = 2;
  tcfg.groups = ran::mixed_geometry_groups();  // includes the 2x4 geometry
  tcfg.seed = 0xFF5EED;

  ran::ClusterPoolConfig pool;
  pool.num_clusters = 1;
  pool.host_threads = 1;
  pool.cluster = dse::cluster_for_cores(128);
  pool.problems_per_core = 1;
  pool.batch_cores = 128;

  ran::TrafficGenerator gen(tcfg);
  pool.fast_forward = false;
  ran::SlotScheduler slow(pool, tcfg.groups);
  pool.fast_forward = true;
  ran::SlotScheduler fast(pool, tcfg.groups);
  for (u64 tti = 0; tti < 2; ++tti) {
    const ran::SlotWorkload slot = gen.slot(tti);
    const ran::SlotResult a = slow.run_slot(slot);
    const ran::SlotResult b = fast.run_slot(slot);
    EXPECT_EQ(a.slot_cycles, b.slot_cycles) << "tti " << tti;
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (size_t i = 0; i < a.trace.size(); ++i)
      EXPECT_EQ(a.trace[i].cycles, b.trace[i].cycles) << "batch " << i;
  }
  EXPECT_GT(fast.fast_forward_stats().shrunk_batches, 0u);
}

TEST(FastForwardScheduler, FullBatchesNeverShrink) {
  ran::TrafficConfig tcfg = partial_traffic();
  ran::ClusterPoolConfig pool = shrink_pool(true);
  pool.batch_cores = 4;  // capacity 8 == allocation size: always full
  ran::TrafficGenerator gen(tcfg);
  ran::SlotScheduler sched(pool, tcfg.groups);
  sched.run_slot(gen.slot(0));
  const ran::SlotScheduler::FastForwardStats s = sched.fast_forward_stats();
  EXPECT_EQ(s.shrunk_batches, 0u);
  EXPECT_GT(s.full_batches, 0u);
  EXPECT_EQ(s.cores_run, s.cores_full);
}

// ---- mac::Cell quiescent-TTI skip ----

mac::CellConfig trough_cell(bool fast_forward) {
  mac::CellConfig cfg;
  cfg.cell = 0;
  cfg.farm_seed = 0xD1A7;
  cfg.num_ues = 6;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.groups = ran::mixed_geometry_groups();
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.25;
  cfg.burst.mean_on_slots = 4.0;
  cfg.burst.arrival_prob = 0.8;
  cfg.burst.diurnal_period_ttis = 40.0;
  cfg.burst.diurnal_depth = 1.0;  // deep troughs: long quiescent stretches
  cfg.pool.num_clusters = 1;
  cfg.pool.host_threads = 1;
  cfg.pool.fast_forward = fast_forward;
  return cfg;
}

TEST(FastForwardCell, SkippedIdleTtisLeaveTheReportBitIdentical) {
  mac::Cell slow(trough_cell(false));
  mac::Cell fast(trough_cell(true));
  const u32 ttis = 300;
  for (u32 t = 0; t < ttis; ++t) {
    slow.step(t);
    fast.step(t);
  }
  EXPECT_EQ(slow.ff_idle_ttis(), 0u);
  EXPECT_GT(fast.ff_idle_ttis(), 0u);
  EXPECT_TRUE(slow.report() == fast.report());
  // The archived per-slot results the percentiles read are identical too.
  ASSERT_EQ(slow.slot_results().size(), fast.slot_results().size());
  for (size_t i = 0; i < slow.slot_results().size(); ++i) {
    EXPECT_EQ(slow.slot_results()[i].tti, fast.slot_results()[i].tti);
    EXPECT_EQ(slow.slot_results()[i].slot_cycles,
              fast.slot_results()[i].slot_cycles);
  }
  // Observability for the README's measured skip ratio.
  std::printf("[ff] quiescent TTIs skipped: %llu / %u (%.0f%%)\n",
              static_cast<unsigned long long>(fast.ff_idle_ttis()), ttis,
              100.0 * static_cast<double>(fast.ff_idle_ttis()) / ttis);
  const ran::SlotScheduler::FastForwardStats s = fast.ff_batch_stats();
  std::printf("[ff] batches shrunk: %llu / %llu, simulated cores %llu / %llu "
              "(%.0f%% parked)\n",
              static_cast<unsigned long long>(s.shrunk_batches),
              static_cast<unsigned long long>(s.shrunk_batches + s.full_batches),
              static_cast<unsigned long long>(s.cores_run),
              static_cast<unsigned long long>(s.cores_full),
              100.0 * s.park_fraction());
}

// ---- DSE warm start ----

TEST(FastForwardDse, WarmStartedPointsEqualColdRunPointsBitExactly) {
  dse::DesignSpace space;
  space.clusters = {1, 2};
  space.cores_per_cluster = {16};
  space.precisions = {kern::Precision::k16CDotp};
  space.problems_per_core = {1, 4};
  space.policies = {ran::AssignPolicy::kLocality};

  dse::SweepConfig cfg;
  cfg.traffic.carrier.bandwidth_hz = 0.5e6;
  cfg.traffic.carrier.symbols_per_slot = 2;
  cfg.traffic.groups = ran::mixed_geometry_groups();
  cfg.traffic.seed = 0xD5E;
  cfg.ttis = 2;
  cfg.golden_ber = false;

  cfg.warm_start = false;
  const dse::SweepResult cold = dse::run_sweep(space, cfg);
  cfg.warm_start = true;
  const dse::SweepResult warm = dse::run_sweep(space, cfg);

  ASSERT_EQ(cold.points.size(), warm.points.size());
  ASSERT_EQ(cold.skipped.size(), warm.skipped.size());
  for (size_t i = 0; i < cold.points.size(); ++i) {
    const dse::PointMetrics& a = cold.points[i];
    const dse::PointMetrics& b = warm.points[i];
    EXPECT_EQ(a.batch_cores, b.batch_cores) << a.point.label();
    EXPECT_EQ(a.problems, b.problems) << a.point.label();
    EXPECT_EQ(a.bits, b.bits) << a.point.label();
    EXPECT_EQ(a.errors, b.errors) << a.point.label();
    EXPECT_EQ(a.instructions, b.instructions) << a.point.label();
    EXPECT_EQ(a.slot_cycles, b.slot_cycles) << a.point.label();
    EXPECT_EQ(a.worst_slot_bits, b.worst_slot_bits) << a.point.label();
    EXPECT_EQ(a.reloads, b.reloads) << a.point.label();
    EXPECT_EQ(a.reload_cycles, b.reload_cycles) << a.point.label();
    EXPECT_EQ(a.busy_cycles, b.busy_cycles) << a.point.label();
  }
}

}  // namespace
}  // namespace tsim
