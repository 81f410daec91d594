// RAN slot-engine throughput: host-side simulation rate and DUT-side slot
// latency as the cluster pool, host thread count, and batch-to-cluster
// assignment policy scale.
//
// Traffic is the mixed-geometry UE population (three distinct (ntx, nrx)
// geometries sharing the carrier), so with fewer clusters than geometries
// the round-robin assignment ping-pongs programs on nearly every batch
// while the locality policy keeps them resident - the `reloads` and
// `reload_kcycles` columns make the difference visible, and the wall-clock
// column shows the host-side cost of the remaining image restores.
//
// Quick mode runs a scaled-down carrier (10 MHz-equivalent grid, 4 symbols);
// --full runs the paper's 1638-subcarrier x 14-symbol TTI. Both policies are
// swept by default; --policy {roundrobin,locality} restricts the sweep.
// Rows report wall-clock time per TTI, simulated problems/s, program
// reloads, the slot's critical-path latency at 1 GHz, and whether the
// 0.5 ms deadline holds.
#include "bench_common.h"

#include "ran/deadline.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"

using namespace tsim;

int main(int argc, char** argv) {
  std::vector<ran::AssignPolicy> policies = {ran::AssignPolicy::kRoundRobin,
                                             ran::AssignPolicy::kLocality};
  const bench::BenchOptions opt = bench::BenchOptions::parse(
      argc, argv,
      {{"--policy", "P", "run only this assignment policy (roundrobin | locality)",
        [&](const char* s) { policies = {ran::parse_policy(s)}; }}});

  phy::CarrierConfig carrier;
  if (!opt.full) {
    carrier.bandwidth_hz = 10e6;  // ~327 subcarriers
    carrier.symbols_per_slot = 4;
  }

  ran::TrafficConfig traffic;
  traffic.carrier = carrier;
  traffic.groups = ran::mixed_geometry_groups();
  traffic.seed = 0xBE7C;

  struct PoolShape {
    u32 clusters;
    u32 host_threads;
  };
  const std::vector<PoolShape> shapes = {{1, 1}, {2, 2}, {4, 2}, {4, 4}};

  sim::Table table({"policy", "clusters", "host_threads", "problems",
                    "wall_ms_per_tti", "problems_per_s", "reloads",
                    "reload_kcycles", "slot_kcycles", "latency_us", "deadline"});
  for (const PoolShape& shape : shapes) {
    for (const ran::AssignPolicy policy : policies) {
      ran::ClusterPoolConfig pool;
      pool.num_clusters = shape.clusters;
      pool.host_threads = shape.host_threads;
      pool.cluster = tera::TeraPoolConfig::tiny();
      pool.problems_per_core = 4;
      pool.policy = policy;

      ran::TrafficGenerator gen(traffic);
      ran::SlotScheduler sched(pool, traffic.groups);

      const u32 ttis = opt.full ? 1 : 2;
      bench::Stopwatch wall;
      u64 problems = 0, reloads = 0, reload_cycles = 0;
      ran::SlotResult last;
      for (u32 t = 0; t < ttis; ++t) {
        last = sched.run_slot(gen.next_slot());
        problems += last.problems;
        reloads += last.total_reloads;
        reload_cycles += last.total_reload_cycles;
      }
      const double wall_s = wall.seconds();
      const ran::SlotTiming timing = ran::slot_timing(last, traffic.carrier, 1e9);

      table.add_row({
          ran::policy_name(policy),
          sim::strf("%u", shape.clusters),
          sim::strf("%u", shape.host_threads),
          sim::strf("%llu", static_cast<unsigned long long>(problems)),
          sim::strf("%.1f", wall_s / ttis * 1e3),
          sim::strf("%.0f", wall_s > 0 ? problems / wall_s : 0.0),
          sim::strf("%llu", static_cast<unsigned long long>(reloads)),
          sim::strf("%.1f", static_cast<double>(reload_cycles) / 1e3),
          sim::strf("%.0f", static_cast<double>(last.slot_cycles) / 1e3),
          sim::strf("%.1f", timing.latency_seconds() * 1e6),
          timing.meets_deadline() ? "met" : "missed",
      });
    }
  }

  std::printf("RAN slot-engine throughput (%s carrier: %u sc x %u sym, %zu UE "
              "geometries)\n",
              opt.full ? "paper" : "quick", traffic.carrier.num_subcarriers(),
              traffic.carrier.symbols_per_slot, traffic.groups.size());
  table.print();
  opt.maybe_write(table, "bench_ran_throughput");
  return 0;
}
