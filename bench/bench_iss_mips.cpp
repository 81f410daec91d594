// Simulated-MIPS trajectory bench for the fast ISS hot loop.
//
// Measures raw emulation throughput (millions of simulated instructions per
// wall-clock second) of Machine::run on the parallel
// MMSE workload, sweeping the hart count up to the largest configuration
// that fits the full TeraPool's L1. Unlike bench_table1_sim_speed this
// binary has no google-benchmark dependency, so it always builds, and its
// --json output is the stable record of the hot-loop speed across commits
// (BENCH_*.json trajectories).
//
// Rows: one per (cores, dispatch path) point. Each point is
// measured twice - `serial` (Machine::set_batching(false): the PR 2
// superblock fast path, one hart at a time) and `batched` (the SPMD
// convergence-batch dispatch, see machine.h) - so the batching speedup and
// its efficiency counters are recorded side by side:
//   speedup        batched sim_MIPS / serial sim_MIPS of the same point
//   lockstep_frac  fraction of instructions retired in lockstep sweeps
//   avg_width      mean convergence-batch width at formation (incl. leader)
//   p50_w / p90_w  width percentiles of the formation histogram
//   avg_run        mean superblock run length swept in lockstep
// The batch-heavy repeat loop (reset_harts + run) is exactly the slot
// scheduler's batch pattern, so these rows predict scheduler throughput.
// The sweep starts at 4 and 8 harts to bracket Machine::kMinBatchWidth: at 4
// harts no batch forms, so both rows take the serial path (lockstep_frac 0),
// and 8 harts is the narrowest point where the lockstep sweep runs.
//
// --guard: A/B regression guard for CI. Exits non-zero when the batched
// path's simulated MIPS falls below 1.25x the serial path at the largest
// quick-mode hart count. The floor is a real speedup requirement, not a
// noise tolerance: the SoA vectorized sweep holds ~1.3x+ on this workload,
// and the interleaved A/B rounds in measure_ab cancel most runner drift, so
// a ratio under 1.25x means the lockstep sweep stopped paying for itself.
#include <cstdio>

#include "bench_common.h"
#include "iss/machine.h"

namespace tsim::bench {
namespace {

struct Point {
  u32 cores;
  bool batched;
  u32 repeats;
  double seconds;
  u64 instructions;
  iss::BatchStats stats;
  double mips() const { return static_cast<double>(instructions) / seconds / 1e6; }
};

/// Measures the serial (first) and batched (second) dispatch of one
/// hart count. The two paths run in short interleaved rounds -
/// serial chunk, batched chunk, repeat - so slow host-throughput drift
/// (VM steal, frequency) hits both paths equally and the speedup column
/// stays meaningful on noisy runners; back-to-back windows can drift by
/// tens of percent on shared machines.
std::pair<Point, Point> measure_ab(const tera::TeraPoolConfig& cluster, u32 cores,
                                   double min_seconds) {
  const kern::MmseLayout lay =
      parallel_layout(cluster, 4, kern::Precision::k16CDotp, cores);
  iss::Machine machine(cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(kern::build_mmse_program(lay));
  stage_random_problems(machine.memory(), lay, 12.0, 21);

  const auto one_run = [&](bool batched) {
    machine.set_batching(batched);
    machine.reset_harts();
    const auto res = machine.run();
    check(res.exited && !res.deadlock, "bench_iss_mips: run failed");
    return res.instructions;
  };
  // Warm-up runs (first touch of memory, page faults, translation).
  one_run(false);
  one_run(true);

  Point s{lay.num_cores, false, 0, 0.0, 0, {}};
  Point b{lay.num_cores, true, 0, 0.0, 0, {}};
  machine.reset_batch_stats();
  const Stopwatch total;
  while (total.seconds() < 2.0 * min_seconds) {
    // One round: a few whole batch runs (the slot scheduler's pattern) per
    // path, timed separately.
    for (Point* p : {&s, &b}) {
      const Stopwatch clock;
      do {
        p->instructions += one_run(p->batched);
        ++p->repeats;
      } while (clock.seconds() < min_seconds / 8.0);
      p->seconds += clock.seconds();
    }
  }
  // Serial rounds contribute nothing here: BatchStats accumulate only
  // while batching is enabled.
  b.stats = machine.batch_stats();
  return {s, b};
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  using namespace tsim;
  using namespace tsim::bench;
  bool guard = false;
  const BenchOptions opt = BenchOptions::parse(
      argc, argv,
      {{"--guard", nullptr, "exit 1 if simulated MIPS regresses below the floor",
        cli::set_to(guard, true)}});

  const auto cluster = tera::TeraPoolConfig::full();
  const u32 max_fit = kern::MmseLayout::max_parallel_cores(
      cluster, 4, 4, kern::Precision::k16CDotp);
  const double min_seconds = opt.full ? 2.0 : 0.5;

  if (guard) {
    // CI speedup guard: the vectorized lockstep sweep must keep a real
    // margin over the serial fast path it wraps (see the header note).
    const auto [s, b] = measure_ab(cluster, 256, min_seconds);
    const double ratio = b.mips() / s.mips();
    std::printf("bench_iss_mips --guard | serial %.2f MIPS, batched %.2f MIPS, "
                "ratio %.2fx (threshold 1.25x)\n",
                s.mips(), b.mips(), ratio);
    if (ratio < 1.25) {
      std::fprintf(stderr, "FAIL: batched dispatch fell below the 1.25x speedup floor\n");
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }

  std::vector<u32> core_counts = {4, 8, 16, 64, 256};
  if (opt.full && max_fit > 256) core_counts.push_back(std::min(max_fit, 1024u));

  sim::Table table({"cores", "path", "repeats", "instructions",
                    "wall_s", "sim_MIPS", "speedup", "lockstep_frac",
                    "avg_width", "p50_w", "p90_w", "avg_run"});
  std::printf("bench_iss_mips | fast-ISS hot-loop throughput (parallel MMSE)\n\n");
  for (const u32 cores : core_counts) {
    const auto [s, b] = measure_ab(cluster, cores, min_seconds);
    table.add_row({
        sim::strf("%u", s.cores),
        "serial",
        sim::strf("%u", s.repeats),
        sim::strf("%llu", static_cast<unsigned long long>(s.instructions)),
        sim::strf("%.3f", s.seconds),
        sim::strf("%.2f", s.mips()),
        "1.00",
        "-", "-", "-", "-", "-",
    });
    table.add_row({
        sim::strf("%u", b.cores),
        "batched",
        sim::strf("%u", b.repeats),
        sim::strf("%llu", static_cast<unsigned long long>(b.instructions)),
        sim::strf("%.3f", b.seconds),
        sim::strf("%.2f", b.mips()),
        sim::strf("%.2f", b.mips() / s.mips()),
        sim::strf("%.3f", b.stats.lockstep_fraction()),
        sim::strf("%.1f", b.stats.avg_width()),
        sim::strf("%llu", static_cast<unsigned long long>(b.stats.width_percentile(0.5))),
        sim::strf("%llu", static_cast<unsigned long long>(b.stats.width_percentile(0.9))),
        sim::strf("%.1f", b.stats.avg_run_length()),
    });
  }
  table.print();
  opt.maybe_write(table, "iss_mips");
  return 0;
}
