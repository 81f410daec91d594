// Slot-level RAN engine tests: traffic generation (full-buffer and Poisson
// arrivals, heterogeneous UE groups, determinism), the multi-cluster slot
// scheduler (bit-exact equivalence with a single-cluster cosim reference,
// determinism across host thread counts), and deadline accounting.
#include <gtest/gtest.h>

#include "ran/deadline.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"
#include "sim/cosim.h"

namespace tsim::ran {
namespace {

/// A small carrier for fast tests: 16 data subcarriers, 2 symbols per slot.
phy::CarrierConfig tiny_carrier(u32 symbols = 2) {
  phy::CarrierConfig c;
  c.bandwidth_hz = 0.5e6;  // 0.4914 MHz usable / 30 kHz = 16 subcarriers
  c.symbols_per_slot = symbols;
  return c;
}

TrafficConfig one_group_traffic(u32 symbols = 2) {
  TrafficConfig cfg;
  cfg.carrier = tiny_carrier(symbols);
  cfg.groups = {UeGroup{"embb", 4, 4, 16, 12.0, phy::ChannelType::kRayleigh, 1.0}};
  cfg.seed = 0xA11CE;
  return cfg;
}

ClusterPoolConfig small_pool(u32 clusters, u32 host_threads) {
  ClusterPoolConfig cfg;
  cfg.num_clusters = clusters;
  cfg.host_threads = host_threads;
  cfg.cluster = tera::TeraPoolConfig::tiny();
  cfg.problems_per_core = 2;
  cfg.batch_cores = 3;  // force several batches per symbol (16 sc / 6 slots)
  return cfg;
}

/// Three distinct (ntx, nrx) geometries sharing the tiny carrier: the
/// geometry-ping-pong stressor for the assignment policies.
TrafficConfig mixed_geometry_traffic(u32 symbols = 4) {
  TrafficConfig cfg;
  cfg.carrier = tiny_carrier(symbols);
  cfg.groups = mixed_geometry_groups();
  cfg.seed = 0x5EED;
  return cfg;
}

TEST(Traffic, FullBufferCoversTheWholeCarrier) {
  TrafficConfig cfg = one_group_traffic();
  cfg.groups = {
      UeGroup{"a", 4, 4, 16, 12.0, phy::ChannelType::kRayleigh, 3.0},
      UeGroup{"b", 2, 4, 4, 6.0, phy::ChannelType::kAwgn, 1.0},
  };
  TrafficGenerator gen(cfg);
  const SlotWorkload slot = gen.slot(0);
  const u32 nsc = cfg.carrier.num_subcarriers();
  ASSERT_EQ(nsc, 16u);
  EXPECT_EQ(slot.num_problems(), nsc * cfg.carrier.symbols_per_slot);
  // Two allocations per symbol, weights 3:1 -> 12 + 4 subcarriers.
  ASSERT_EQ(slot.allocations.size(), 2u * cfg.carrier.symbols_per_slot);
  for (const auto& a : slot.allocations) {
    EXPECT_EQ(a.num_problems(), a.group == 0 ? 12u : 4u);
  }
  // Group geometry flows through: group 1 problems are 4x2 (nrx x ntx).
  const auto& b = slot.allocations[1];
  ASSERT_EQ(b.group, 1u);
  EXPECT_EQ(b.batch.problems[0].h.rows(), 4u);
  EXPECT_EQ(b.batch.problems[0].h.cols(), 2u);
  // 12 * 4 layers * 4 bits + 4 * 2 layers * 2 bits per symbol.
  EXPECT_EQ(slot.num_bits(), (12u * 16u + 4u * 4u) * cfg.carrier.symbols_per_slot);
}

TEST(Traffic, SameSeedReproducesTheSameSlot) {
  TrafficGenerator gen_a(one_group_traffic());
  TrafficGenerator gen_b(one_group_traffic());
  const SlotWorkload a = gen_a.slot(3);
  const SlotWorkload b = gen_b.slot(3);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    EXPECT_EQ(a.allocations[i].batch.tx_bits, b.allocations[i].batch.tx_bits);
    ASSERT_EQ(a.allocations[i].batch.problems.size(),
              b.allocations[i].batch.problems.size());
    EXPECT_EQ(a.allocations[i].batch.problems[0].y, b.allocations[i].batch.problems[0].y);
  }
}

TEST(Traffic, DistinctTtisCarryDistinctPayloads) {
  TrafficGenerator gen(one_group_traffic());
  const SlotWorkload a = gen.next_slot();
  const SlotWorkload b = gen.next_slot();
  EXPECT_EQ(a.tti, 0u);
  EXPECT_EQ(b.tti, 1u);
  EXPECT_NE(a.allocations[0].batch.tx_bits, b.allocations[0].batch.tx_bits);
}

TEST(Traffic, PoissonOccupancyIsBoundedAndLoadDependent) {
  TrafficConfig cfg = one_group_traffic(/*symbols=*/14);
  cfg.arrival = ArrivalModel::kPoisson;
  cfg.offered_load = 0.5;
  TrafficGenerator gen(cfg);
  const u32 nsc = cfg.carrier.num_subcarriers();
  u64 total = 0, slots = 40;
  for (u64 t = 0; t < slots; ++t) {
    const SlotWorkload slot = gen.slot(t);
    for (const auto& a : slot.allocations) {
      EXPECT_LE(a.first_subcarrier + a.num_problems(), nsc);
    }
    total += slot.num_problems();
  }
  const double mean_occupancy =
      static_cast<double>(total) /
      (static_cast<double>(slots) * cfg.carrier.symbols_per_slot * nsc);
  EXPECT_GT(mean_occupancy, 0.35);
  EXPECT_LT(mean_occupancy, 0.65);
}

TEST(Traffic, PoissonSampleMatchesMeanInBothRegimes) {
  Rng rng(77);
  for (const double mean : {5.0, 150.0}) {
    double sum = 0.0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i) sum += poisson_sample(rng, mean);
    EXPECT_NEAR(sum / draws, mean, mean * 0.1) << "mean " << mean;
  }
}

TEST(Traffic, ValidateRejectsBadConfigs) {
  TrafficConfig cfg = one_group_traffic();
  cfg.groups.clear();
  EXPECT_THROW(TrafficGenerator{cfg}, SimError);
  cfg = one_group_traffic();
  cfg.groups[0].weight = 0.0;
  EXPECT_THROW(TrafficGenerator{cfg}, SimError);
  cfg = one_group_traffic();
  cfg.offered_load = 1.5;
  EXPECT_THROW(TrafficGenerator{cfg}, SimError);
}

// The acceptance test: the multi-cluster / multi-host-thread scheduler's
// detected bits must match an independent single-cluster cosim reference
// that stages the same problems through one Machine, batch by batch.
TEST(Scheduler, MatchesSingleClusterCosimReference) {
  const TrafficConfig tcfg = one_group_traffic();
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);

  SlotScheduler sched(small_pool(/*clusters=*/2, /*host_threads=*/2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);
  EXPECT_EQ(result.problems, slot.num_problems());
  EXPECT_EQ(result.bits, slot.num_bits());

  // Reference: one cluster, one host thread, plain cosim loop (mc.cpp style).
  const kern::MmseLayout lay = sched.layout_for_group(0);
  iss::Machine machine(lay.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(kern::build_mmse_program(lay));
  const phy::QamModulator qam(tcfg.groups[0].qam_order);
  const u32 capacity = lay.num_cores * lay.problems_per_core;
  u64 ref_errors = 0;
  for (size_t ai = 0; ai < slot.allocations.size(); ++ai) {
    const Allocation& alloc = slot.allocations[ai];
    const u32 bits_per_problem = lay.ntx * qam.bits_per_symbol();
    for (u32 off = 0; off < alloc.num_problems(); off += capacity) {
      const u32 count = std::min(capacity, alloc.num_problems() - off);
      for (u32 i = 0; i < capacity; ++i) {
        const u32 p = off + (i < count ? i : i % count);
        sim::stage_problem(machine.memory(), lay, i / lay.problems_per_core,
                           i % lay.problems_per_core, alloc.batch.problems[p]);
      }
      machine.reset_harts();
      ASSERT_TRUE(machine.run().exited);
      for (u32 i = 0; i < count; ++i) {
        const auto xhat = sim::read_xhat(machine.memory(), lay,
                                         i / lay.problems_per_core,
                                         i % lay.problems_per_core);
        const auto rx = qam.demap_sequence(xhat);
        const size_t base = static_cast<size_t>(off + i) * bits_per_problem;
        for (u32 b = 0; b < bits_per_problem; ++b) {
          ASSERT_EQ(result.detected_bits[ai][base + b], rx[b])
              << "allocation " << ai << " problem " << off + i << " bit " << b;
          ref_errors += (rx[b] != alloc.batch.tx_bits[base + b]) ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(result.errors, ref_errors);
}

void expect_same_slot_result(const SlotResult& a, const SlotResult& b) {
  EXPECT_EQ(a.tti, b.tti);
  EXPECT_EQ(a.problems, b.problems);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.detected_bits, b.detected_bits);
  EXPECT_EQ(a.allocation_errors, b.allocation_errors);
  EXPECT_EQ(a.cluster_busy_cycles, b.cluster_busy_cycles);
  EXPECT_EQ(a.cluster_batches, b.cluster_batches);
  EXPECT_EQ(a.cluster_reloads, b.cluster_reloads);
  EXPECT_EQ(a.cluster_reload_cycles, b.cluster_reload_cycles);
  EXPECT_EQ(a.total_reloads, b.total_reloads);
  EXPECT_EQ(a.total_reload_cycles, b.total_reload_cycles);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.symbol_cycles, b.symbol_cycles);
  EXPECT_EQ(a.slot_cycles, b.slot_cycles);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.dead_clusters, b.dead_clusters);
#define TSIM_EXPECT_SAME(f) EXPECT_EQ(a.f, b.f) << #f;
  TSIM_SLOT_FAULT_COUNTERS(TSIM_EXPECT_SAME)
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    SCOPED_TRACE("batch " + std::to_string(i));
    const BatchTrace& x = a.trace[i];
    const BatchTrace& y = b.trace[i];
    EXPECT_EQ(x.cluster, y.cluster);
    EXPECT_EQ(x.allocation, y.allocation);
    EXPECT_EQ(x.offset, y.offset);
    EXPECT_EQ(x.count, y.count);
    EXPECT_EQ(x.geometry, y.geometry);
    EXPECT_EQ(x.reloads, y.reloads);
    EXPECT_EQ(x.reload_cycles, y.reload_cycles);
    EXPECT_EQ(x.cycles, y.cycles);
    EXPECT_EQ(x.instructions, y.instructions);
    EXPECT_EQ(x.failed, y.failed);
#define TSIM_EXPECT_SAME_BATCH(f) EXPECT_EQ(x.f, y.f) << #f;
    TSIM_BATCH_FAULT_COUNTERS(TSIM_EXPECT_SAME_BATCH)
#undef TSIM_EXPECT_SAME_BATCH
  }
#undef TSIM_EXPECT_SAME
}

TEST(Scheduler, DeterministicAcrossHostThreadCounts) {
  // Three clusters: at 2 host threads one worker claims two clusters, at 3
  // and 4 every cluster gets its own worker. Six single-problem cores leave
  // partial batches that fast-forward shrinks, so the per-cluster
  // fast-forward counters are updated from several threads (the TSan job
  // runs this test as the scheduler's race check).
  ClusterPoolConfig pool = small_pool(3, /*host_threads=*/1);
  pool.problems_per_core = 1;
  pool.batch_cores = 6;
  pool.fast_forward = true;
  for (const TrafficConfig& tcfg : {one_group_traffic(), mixed_geometry_traffic()}) {
    SCOPED_TRACE(tcfg.groups.size() == 1 ? "one group" : "mixed geometry");
    const SlotWorkload slot = TrafficGenerator(tcfg).slot(1);
    pool.host_threads = 1;
    SlotScheduler serial(pool, tcfg.groups);
    const SlotResult a = serial.run_slot(slot);
    const SlotScheduler::FastForwardStats ff = serial.fast_forward_stats();
    EXPECT_GT(ff.shrunk_batches, 0u);
    for (const u32 threads : {2u, 3u, 4u}) {
      SCOPED_TRACE("host_threads " + std::to_string(threads));
      pool.host_threads = threads;
      SlotScheduler parallel(pool, tcfg.groups);
      expect_same_slot_result(a, parallel.run_slot(slot));
      const SlotScheduler::FastForwardStats pf = parallel.fast_forward_stats();
      EXPECT_EQ(ff.full_batches, pf.full_batches);
      EXPECT_EQ(ff.shrunk_batches, pf.shrunk_batches);
      EXPECT_EQ(ff.cores_full, pf.cores_full);
      EXPECT_EQ(ff.cores_run, pf.cores_run);
    }
  }
}

TEST(Scheduler, RejectsIntraClusterThreads) {
  // Each cluster runs on one host thread; the leftover knob must say so
  // instead of being silently ignored.
  ClusterPoolConfig pool = small_pool(2, 2);
  pool.threads_per_cluster = 2;
  try {
    SlotScheduler sched(pool, one_group_traffic().groups);
    FAIL() << "threads_per_cluster = 2 was accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos) << e.what();
  }
  pool.threads_per_cluster = 1;
  EXPECT_NO_THROW(SlotScheduler(pool, one_group_traffic().groups));
}

TEST(Scheduler, HandlesHeterogeneousGeometriesAndConstellations) {
  TrafficConfig tcfg = one_group_traffic();
  tcfg.groups = {
      UeGroup{"embb", 4, 4, 16, 14.0, phy::ChannelType::kRayleigh, 1.0},
      UeGroup{"urllc", 2, 4, 4, 8.0, phy::ChannelType::kAwgn, 1.0},
  };
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);

  SlotScheduler sched(small_pool(2, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);
  ASSERT_EQ(result.detected_bits.size(), slot.allocations.size());
  for (size_t a = 0; a < slot.allocations.size(); ++a) {
    EXPECT_EQ(result.detected_bits[a].size(), slot.allocations[a].batch.tx_bits.size());
  }
  EXPECT_EQ(result.bits, slot.num_bits());
  // Detection genuinely ran: BER is far below the coin-flip 0.5.
  EXPECT_LT(result.ber(), 0.2);
  // Both geometries use the same hart count (shared machine sizing).
  EXPECT_EQ(sched.layout_for_group(0).num_cores, sched.layout_for_group(1).num_cores);
}

TEST(Scheduler, AccountsEveryBatchExactlyOnce) {
  const TrafficConfig tcfg = one_group_traffic();
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);
  SlotScheduler sched(small_pool(3, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);

  u32 batches = 0;
  for (const u32 n : result.cluster_batches) batches += n;
  EXPECT_EQ(batches, result.trace.size());
  u64 covered = 0;
  for (const auto& t : result.trace) {
    EXPECT_GT(t.cycles, 0u);
    covered += t.count;
  }
  EXPECT_EQ(covered, slot.num_problems());
  // Round-robin assignment touches every cluster when there is enough work.
  for (const u32 n : result.cluster_batches) EXPECT_GT(n, 0u);
}

// Regression for the slot critical-path accounting: symbols are
// data-serialized, so slot_cycles must be the sum over symbols of the
// per-symbol cross-cluster maximum. Pinned to the round-robin policy: with
// 3 batches per symbol round-robined over 2 clusters, consecutive symbols
// load opposite clusters (cluster 0 runs 2 batches of symbol 0, cluster 1
// runs 2 batches of symbol 1), so the per-symbol maxima sit on different
// clusters and the old max-of-cluster-totals formula under-reported the
// latency.
TEST(Scheduler, SlotCriticalPathIsSymbolSerializedSum) {
  const TrafficConfig tcfg = one_group_traffic(/*symbols=*/2);
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);

  ClusterPoolConfig pool = small_pool(/*clusters=*/2, /*host_threads=*/2);
  pool.policy = AssignPolicy::kRoundRobin;
  SlotScheduler sched(pool, tcfg.groups);
  const SlotResult result = sched.run_slot(slot);

  ASSERT_EQ(result.symbol_cycles.size(), 2u);
  u64 symbol_sum = 0;
  for (const u64 c : result.symbol_cycles) symbol_sum += c;
  EXPECT_EQ(result.slot_cycles, symbol_sum);

  // Cross-check against the trace: per-(cluster, symbol) busy cycles,
  // program reload cycles included (they are on the critical path).
  std::vector<std::vector<u64>> busy(2, std::vector<u64>(2, 0));
  for (const BatchTrace& t : result.trace) {
    busy[t.cluster][slot.allocations[t.allocation].symbol] +=
        t.cycles + t.reload_cycles;
  }
  u64 expected = 0;
  for (u32 s = 0; s < 2; ++s) expected += std::max(busy[0][s], busy[1][s]);
  EXPECT_EQ(result.slot_cycles, expected);

  // The constructed slot is genuinely imbalanced: the serialized critical
  // path strictly exceeds every cluster's busy total, which is exactly the
  // margin the old formula over-reported.
  for (u32 c = 0; c < 2; ++c) {
    EXPECT_GT(result.slot_cycles, result.cluster_busy_cycles[c]);
  }
}

// The policy acceptance test: with more geometries than clusters, the
// locality policy must produce bit-identical detections to round-robin
// while cutting program reloads by at least 2x (reloads under round-robin
// approach one per batch; under locality they approach the per-symbol
// geometry-overcommit minimum).
// In the degenerate configs (single geometry, or single cluster) the
// locality policy skips the per-geometry calibration runs - relative costs
// cannot change an assignment there - and substitutes a large uniform
// placeholder cost, which keeps the even-share chunk arithmetic in the
// same large-cost regime as real calibrated kernel cycles.
TEST(Scheduler, LocalitySkipsCalibrationInDegenerateConfigs) {
  const TrafficConfig single_geo = one_group_traffic();
  TrafficGenerator gen(single_geo);
  const SlotWorkload slot = gen.slot(0);

  // Single geometry, two clusters: calibration skipped, unit costs.
  SlotScheduler loc(small_pool(2, 2), single_geo.groups);
  EXPECT_EQ(loc.batch_cycles_for_group(0), SlotScheduler::kUncalibratedBatchCost);

  // Detections still match the round-robin reference bit for bit, and the
  // work still spreads over both clusters.
  ClusterPoolConfig rr_cfg = small_pool(2, 2);
  rr_cfg.policy = AssignPolicy::kRoundRobin;
  SlotScheduler rr(rr_cfg, single_geo.groups);
  EXPECT_EQ(rr.batch_cycles_for_group(0), 0u);  // roundrobin never calibrates
  const SlotResult a = loc.run_slot(slot);
  const SlotResult b = rr.run_slot(slot);
  EXPECT_EQ(a.detected_bits, b.detected_bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_GT(a.cluster_batches[0], 0u);
  EXPECT_GT(a.cluster_batches[1], 0u);

  // Multiple geometries on a single cluster: also skipped.
  TrafficConfig mixed = mixed_geometry_traffic();
  SlotScheduler one_cluster(small_pool(1, 1), mixed.groups);
  for (u32 g = 0; g < static_cast<u32>(mixed.groups.size()); ++g)
    EXPECT_EQ(one_cluster.batch_cycles_for_group(g),
              SlotScheduler::kUncalibratedBatchCost);
  const SlotResult c = one_cluster.run_slot(TrafficGenerator(mixed).slot(0));
  EXPECT_EQ(c.problems, TrafficGenerator(mixed).slot(0).num_problems());

  // Multiple geometries AND multiple clusters: calibration still runs and
  // yields real (non-unit) cycle costs.
  SlotScheduler calibrated(small_pool(2, 2), mixed.groups);
  for (u32 g = 0; g < static_cast<u32>(mixed.groups.size()); ++g) {
    EXPECT_GT(calibrated.batch_cycles_for_group(g), 1u);
    EXPECT_NE(calibrated.batch_cycles_for_group(g),
              SlotScheduler::kUncalibratedBatchCost);
  }
}

TEST(Scheduler, PoliciesAreBitIdenticalAndLocalityCutsReloads) {
  const TrafficConfig tcfg = mixed_geometry_traffic(/*symbols=*/4);
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);

  ClusterPoolConfig rr = small_pool(/*clusters=*/2, /*host_threads=*/2);
  rr.batch_cores = 1;  // capacity 2: several batches per geometry per symbol
  rr.policy = AssignPolicy::kRoundRobin;
  ClusterPoolConfig loc = rr;
  loc.policy = AssignPolicy::kLocality;

  const SlotResult a = SlotScheduler(rr, tcfg.groups).run_slot(slot);
  const SlotResult b = SlotScheduler(loc, tcfg.groups).run_slot(slot);

  // Functional results do not depend on where a batch runs.
  EXPECT_EQ(a.detected_bits, b.detected_bits);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.problems, b.problems);
  EXPECT_EQ(a.trace.size(), b.trace.size());

  // The locality win: >= 2x fewer program reloads, less reload time on the
  // critical path.
  EXPECT_GT(a.total_reloads, 0u);
  EXPECT_GE(a.total_reloads, 2 * b.total_reloads);
  EXPECT_LT(b.total_reload_cycles, a.total_reload_cycles);
}

TEST(Scheduler, ReloadAccountingIsConsistent) {
  const TrafficConfig tcfg = mixed_geometry_traffic();
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);
  SlotScheduler sched(small_pool(2, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);

  // Trace-level reloads roll up exactly into the per-cluster and slot
  // totals, and busy cycles include the reload cycles.
  std::vector<u32> reloads(2, 0);
  std::vector<u64> reload_cycles(2, 0), busy(2, 0);
  for (const BatchTrace& t : result.trace) {
    ASSERT_LT(t.cluster, 2u);
    EXPECT_LE(t.reloads, 1u);
    EXPECT_EQ(t.reload_cycles > 0, t.reloads == 1);
    reloads[t.cluster] += t.reloads;
    reload_cycles[t.cluster] += t.reload_cycles;
    busy[t.cluster] += t.cycles + t.reload_cycles;
  }
  EXPECT_EQ(result.cluster_reloads, reloads);
  EXPECT_EQ(result.cluster_reload_cycles, reload_cycles);
  EXPECT_EQ(result.cluster_busy_cycles, busy);
  EXPECT_EQ(result.total_reloads, static_cast<u64>(reloads[0]) + reloads[1]);
  EXPECT_EQ(result.total_reload_cycles, reload_cycles[0] + reload_cycles[1]);
  // Three geometries over two clusters: someone must reload at least once.
  EXPECT_GT(result.total_reloads, 0u);
  // The modeled DMA reload cost is nonzero for any real program image.
  EXPECT_GT(program_reload_cycles(4096), 0u);
}

TEST(Deadline, DeadlineReportCarriesReloadOverhead) {
  const TrafficConfig tcfg = mixed_geometry_traffic();
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);
  SlotScheduler sched(small_pool(2, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);

  const DeadlineReport rep = deadline_report(result, tcfg.carrier, 1e9);
  EXPECT_EQ(rep.reloads, result.total_reloads);
  EXPECT_EQ(rep.reload_cycles, result.total_reload_cycles);
  EXPECT_EQ(rep.timing.slot_cycles, result.slot_cycles);
  EXPECT_EQ(rep.met(), rep.timing.meets_deadline());
  EXPECT_GT(rep.reload_fraction(), 0.0);
  EXPECT_LT(rep.reload_fraction(), 1.0);
}

TEST(Deadline, TimingArithmetic) {
  SlotTiming t;
  t.slot_cycles = 500'000;
  t.clock_hz = 1e9;
  t.tti_seconds = 5e-4;
  EXPECT_DOUBLE_EQ(t.latency_seconds(), 5e-4);
  EXPECT_TRUE(t.meets_deadline());
  EXPECT_DOUBLE_EQ(t.margin_seconds(), 0.0);

  t.slot_cycles = 750'000;
  EXPECT_FALSE(t.meets_deadline());
  EXPECT_NEAR(t.margin_fraction(), -0.5, 1e-12);

  EXPECT_DOUBLE_EQ(throughput_mbps(1'000'000, 1e-3), 1000.0);
  EXPECT_DOUBLE_EQ(throughput_mbps(123, 0.0), 0.0);
}

TEST(Deadline, SlotTimingFollowsTheCarrierNumerology) {
  const phy::CarrierConfig carrier = phy::CarrierConfig::paper_50mhz();
  SlotResult result;
  result.slot_cycles = 400'000;
  const SlotTiming t = slot_timing(result, carrier, 1e9);
  EXPECT_DOUBLE_EQ(t.tti_seconds, 5e-4);  // mu = 1 -> 0.5 ms slot
  EXPECT_TRUE(t.meets_deadline());
}

// ---- deadline.h unit tests on hand-built SlotResults: the report
// arithmetic (margins, reload_fraction, utilization, symbol serialization)
// pinned independently of the full scheduler path. ----

TEST(Deadline, ReportFieldsFromHandBuiltSlotResult) {
  SlotResult r;
  r.symbol_cycles = {150'000, 250'000};
  r.slot_cycles = 400'000;  // symbol-serialized sum
  r.cluster_busy_cycles = {300'000, 200'000};
  r.total_reloads = 3;
  r.total_reload_cycles = 50'000;

  const phy::CarrierConfig carrier = phy::CarrierConfig::paper_50mhz();
  const DeadlineReport rep = deadline_report(r, carrier, 1e9);
  EXPECT_EQ(rep.reloads, 3u);
  EXPECT_EQ(rep.reload_cycles, 50'000u);
  EXPECT_EQ(rep.busy_cycles, 500'000u);  // summed across clusters
  EXPECT_DOUBLE_EQ(rep.reload_fraction(), 0.1);
  EXPECT_TRUE(rep.met());
  EXPECT_DOUBLE_EQ(rep.timing.latency_seconds(), 4e-4);
  EXPECT_DOUBLE_EQ(rep.timing.margin_seconds(), 1e-4);
  EXPECT_NEAR(rep.timing.margin_fraction(), 0.2, 1e-12);

  // Utilization is measured against the hand-built critical path.
  EXPECT_DOUBLE_EQ(cluster_utilization(r, 0), 0.75);
  EXPECT_DOUBLE_EQ(cluster_utilization(r, 1), 0.5);

  // The clock scales latency: at 2 GHz the same cycles halve the latency.
  const DeadlineReport fast = deadline_report(r, carrier, 2e9);
  EXPECT_DOUBLE_EQ(fast.timing.latency_seconds(), 2e-4);
  EXPECT_NEAR(fast.timing.margin_fraction(), 0.6, 1e-12);
}

TEST(Deadline, OverrunMarginsAndEmptyResultGuards) {
  SlotResult r;
  r.slot_cycles = 600'000;
  const DeadlineReport rep = deadline_report(r, phy::CarrierConfig::paper_50mhz(), 1e9);
  EXPECT_FALSE(rep.met());
  EXPECT_NEAR(rep.timing.margin_seconds(), -1e-4, 1e-16);
  EXPECT_NEAR(rep.timing.margin_fraction(), -0.2, 1e-12);
  // No busy cycles recorded: reload_fraction guards the division.
  EXPECT_EQ(rep.busy_cycles, 0u);
  EXPECT_DOUBLE_EQ(rep.reload_fraction(), 0.0);
  // A zero-cycle result never divides by zero either.
  SlotResult empty;
  empty.cluster_busy_cycles = {0};
  EXPECT_DOUBLE_EQ(cluster_utilization(empty, 0), 0.0);
}

TEST(Deadline, SymbolSerializedReportsRenderHandBuiltCycles) {
  SlotResult r;
  r.tti = 7;
  r.problems = 6;
  r.bits = 48;
  r.errors = 3;
  r.symbol_cycles = {100'000, 200'000, 300'000};
  r.slot_cycles = 600'000;  // == sum(symbol_cycles), the deadline.h contract
  r.cluster_busy_cycles = {400'000, 350'000};
  r.total_reloads = 2;
  r.total_reload_cycles = 60'000;

  const phy::CarrierConfig carrier = phy::CarrierConfig::paper_50mhz();
  const SlotTiming timing = slot_timing(r, carrier, 1e9);
  EXPECT_EQ(timing.slot_cycles, 600'000u);

  sim::Table slots = slot_report_header();
  add_slot_row(slots, r, timing);
  ASSERT_EQ(slots.rows().size(), 1u);
  const auto& header = slots.header();
  const auto& row = slots.rows()[0];
  ASSERT_EQ(row.size(), header.size());
  const auto cell = [&](const std::string& name) -> const std::string& {
    for (size_t c = 0; c < header.size(); ++c)
      if (header[c] == name) return row[c];
    ADD_FAILURE() << "missing column " << name;
    return row[0];
  };
  EXPECT_EQ(cell("tti"), "7");
  EXPECT_EQ(cell("ber"), "0.0625");
  EXPECT_EQ(cell("met"), "NO");  // 600 us > 500 us deadline
  EXPECT_EQ(cell("reloads"), "2");
  // Reload share of total busy time: 60k / 750k = 8%.
  EXPECT_EQ(cell("reload_%"), "8.00");

  const sim::Table symbols = symbol_report(r, timing);
  ASSERT_EQ(symbols.rows().size(), 3u);
  EXPECT_EQ(symbols.rows()[2][1], "300000");
  EXPECT_EQ(symbols.rows()[2][2], "300.00");  // us at 1 GHz
}

TEST(Deadline, UtilizationAndReportsAreWellFormed) {
  const TrafficConfig tcfg = one_group_traffic();
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.slot(0);
  SlotScheduler sched(small_pool(2, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);

  for (u32 c = 0; c < 2; ++c) {
    EXPECT_GT(cluster_utilization(result, c), 0.0);
    EXPECT_LE(cluster_utilization(result, c), 1.0);
  }
  // The slot critical path is the symbol-serialized sum, so it bounds every
  // cluster's busy total but need not equal any of them.
  for (u32 c = 0; c < 2; ++c) {
    EXPECT_LE(result.cluster_busy_cycles[c], result.slot_cycles);
  }

  const SlotTiming timing = slot_timing(result, tcfg.carrier, 1e9);
  sim::Table report = slot_report_header();
  add_slot_row(report, result, timing);
  const sim::Table clusters = cluster_report(result);
  const sim::Table symbols = symbol_report(result, timing);
  (void)clusters;
  (void)symbols;
  EXPECT_EQ(result.symbol_cycles.size(), tcfg.carrier.symbols_per_slot);
  for (const u64 c : result.symbol_cycles) EXPECT_GT(c, 0u);
}

/// Exact (bit-level) workload equality over everything the detector
/// consumes: allocation geometry, ground-truth bits/symbols, and the staged
/// problems' received vectors and noise estimates.
void expect_identical_workloads(const SlotWorkload& a, const SlotWorkload& b) {
  ASSERT_EQ(a.tti, b.tti);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (size_t i = 0; i < a.allocations.size(); ++i) {
    const Allocation& x = a.allocations[i];
    const Allocation& y = b.allocations[i];
    EXPECT_EQ(x.group, y.group);
    EXPECT_EQ(x.symbol, y.symbol);
    EXPECT_EQ(x.first_subcarrier, y.first_subcarrier);
    ASSERT_EQ(x.batch.tx_bits, y.batch.tx_bits);
    ASSERT_EQ(x.batch.problems.size(), y.batch.problems.size());
    for (size_t p = 0; p < x.batch.problems.size(); ++p) {
      EXPECT_EQ(x.batch.problems[p].sigma2, y.batch.problems[p].sigma2);
      ASSERT_EQ(x.batch.problems[p].y.size(), y.batch.problems[p].y.size());
      for (size_t k = 0; k < x.batch.problems[p].y.size(); ++k)
        EXPECT_EQ(x.batch.problems[p].y[k], y.batch.problems[p].y[k]);
    }
  }
}

TEST(Traffic, SlotsAreOrderIndependent) {
  // Every allocation's RNG sub-stream is keyed by (seed, tti, symbol, group)
  // identity, so generating TTIs out of order - as farm shards and the DSE
  // sweep do - must reproduce the forward sequence bit-for-bit.
  TrafficConfig tcfg = one_group_traffic();
  tcfg.groups = mixed_geometry_groups();
  tcfg.arrival = ArrivalModel::kPoisson;
  tcfg.offered_load = 0.8;
  const TrafficGenerator forward(tcfg);
  const TrafficGenerator shuffled(tcfg);
  std::vector<SlotWorkload> slots(10);
  for (u64 t = 0; t < 10; ++t) slots[t] = forward.slot(t);
  for (const u64 t : {7ull, 2ull, 9ull, 0ull, 5ull, 1ull, 8ull, 3ull, 6ull, 4ull})
    expect_identical_workloads(shuffled.slot(t), slots[t]);
}

TEST(Traffic, NextSlotMatchesRandomAccess) {
  const TrafficConfig tcfg = one_group_traffic();
  TrafficGenerator sequential(tcfg);
  const TrafficGenerator random_access(tcfg);
  for (u64 t = 0; t < 4; ++t)
    expect_identical_workloads(sequential.next_slot(), random_access.slot(t));
}

TEST(Scheduler, AllocationErrorsSumToSlotErrors) {
  TrafficConfig tcfg = one_group_traffic();
  tcfg.groups[0].snr_db = 8.0;  // low enough that some bits flip
  TrafficGenerator gen(tcfg);
  const SlotWorkload slot = gen.next_slot();
  SlotScheduler sched(small_pool(2, 2), tcfg.groups);
  const SlotResult result = sched.run_slot(slot);
  ASSERT_EQ(result.allocation_errors.size(), slot.allocations.size());
  u64 sum = 0;
  for (const u64 e : result.allocation_errors) sum += e;
  EXPECT_EQ(sum, result.errors);
  EXPECT_GT(result.errors, 0u);  // the per-PDU split carries real signal
}

TEST(Deadline, NearestRankPercentiles) {
  const std::vector<u64> sorted = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(nearest_rank(sorted, 0.50), 50u);
  EXPECT_EQ(nearest_rank(sorted, 0.99), 100u);
  EXPECT_EQ(nearest_rank(sorted, 1.00), 100u);
  EXPECT_EQ(nearest_rank(sorted, 0.01), 10u);
  EXPECT_EQ(nearest_rank({42}, 0.5), 42u);
  EXPECT_EQ(nearest_rank({}, 0.5), 0u);
}

TEST(Deadline, AggregateReportFromHandBuiltResults) {
  // paper_50mhz slot budget is 0.5 ms = 500k cycles at 1 GHz: one of the
  // three hand-built slots overruns.
  std::vector<SlotResult> results(3);
  results[0].slot_cycles = 400'000;
  results[0].bits = 100;
  results[0].errors = 2;
  results[0].total_reloads = 1;
  results[0].total_reload_cycles = 1000;
  results[1].slot_cycles = 450'000;
  results[1].bits = 100;
  results[1].errors = 0;
  results[2].slot_cycles = 600'000;
  results[2].bits = 200;
  results[2].errors = 6;
  results[2].total_reloads = 2;
  results[2].total_reload_cycles = 3000;

  const AggregateReport agg =
      aggregate_report(results, phy::CarrierConfig::paper_50mhz(), 1e9);
  EXPECT_EQ(agg.slots, 3u);
  EXPECT_EQ(agg.misses, 1u);
  EXPECT_EQ(agg.worst_cycles, 600'000u);
  EXPECT_EQ(agg.p50_cycles, 450'000u);
  EXPECT_EQ(agg.p99_cycles, 600'000u);
  EXPECT_EQ(agg.reloads, 3u);
  EXPECT_EQ(agg.reload_cycles, 4000u);
  EXPECT_EQ(agg.total_bits, 400u);
  EXPECT_EQ(agg.total_errors, 8u);
  EXPECT_DOUBLE_EQ(agg.ber(), 0.02);
  EXPECT_NEAR(agg.miss_fraction(), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(agg.p50_latency_seconds(), 4.5e-4);
  EXPECT_DOUBLE_EQ(agg.worst_latency_seconds(), 6e-4);

  // Empty run: all-zero aggregates, no division by zero.
  const AggregateReport none =
      aggregate_report({}, phy::CarrierConfig::paper_50mhz(), 1e9);
  EXPECT_EQ(none.slots, 0u);
  EXPECT_DOUBLE_EQ(none.miss_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(none.ber(), 0.0);
}

}  // namespace
}  // namespace tsim::ran
