// Slot-level RAN simulation: a full 14-symbol TTI of the paper's NR carrier
// (50 MHz, 30 kHz SCS, 1638 subcarriers) processed by a pool of emulated
// TeraPool clusters, with per-TTI latency checked against the 0.5 ms slot
// deadline (paper Sec. II: "processes a TTI with 14 OFDM-symbols in < 1 ms").
//
// Traffic is heterogeneous: an eMBB group (4x4 MIMO, 64-QAM, Rayleigh) and a
// low-order control-like group (2x4, QPSK, AWGN) share each symbol's
// subcarriers. Every subcarrier problem runs bit-true on the emulated RV32
// clusters; cycle accounting converts to latency at the given clock.
//
// Build & run:  ./ran_slot_sim [--clusters N] [--ttis N] [--poisson LOAD]
//                              [--full] [--policy roundrobin|locality] ...
//   `--help` lists every flag. --full uses the 1024-core TeraPool per cluster
//   (default: the 16-core tiny configuration, which visibly misses the
//   deadline); --json writes the per-TTI table as JSON rows so the two
//   assignment policies can be diffed from the CLI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/cli.h"
#include "ran/deadline.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"

using namespace tsim;

namespace {

int run(int argc, char** argv) {
  // The paper's carrier and a mixed-service UE population.
  ran::TrafficConfig traffic;
  traffic.carrier = phy::CarrierConfig::paper_50mhz();
  traffic.groups = {
      ran::UeGroup{"embb", 4, 4, 64, 22.0, phy::ChannelType::kRayleigh, 3.0},
      ran::UeGroup{"ctrl", 2, 4, 4, 10.0, phy::ChannelType::kAwgn, 1.0},
  };

  ran::ClusterPoolConfig pool;  // 2 tiny clusters, locality assignment
  pool.host_threads = std::max(2u, std::min(4u, std::thread::hardware_concurrency()));
  pool.prec = kern::Precision::k16CDotp;
  pool.problems_per_core = 4;

  u32 ttis = 1;
  double clock_ghz = 1.0;
  std::string json_dir;
  cli::parse(argc, argv, {
      {"--clusters", "N", "emulated clusters in the pool (default 2)",
       cli::positive(pool.num_clusters)},
      {"--threads", "N", "host worker threads (default 2-4, by host CPUs)",
       cli::positive(pool.host_threads)},
      {"--ttis", "N", "slots to simulate (default 1)", cli::positive(ttis)},
      {"--poisson", "LOAD", "Poisson arrivals at this offered load (default: full)",
       [&traffic](const char* s) {
         traffic.arrival = ran::ArrivalModel::kPoisson;
         traffic.offered_load = cli::parse_double(s, false);
       }},
      {"--clock", "GHZ", "modelled cluster clock (default 1.0)",
       cli::positive(clock_ghz)},
      {"--full", nullptr, "1024-core TeraPool clusters (default: 16-core tiny)",
       cli::set_to(pool.cluster, tera::TeraPoolConfig::full())},
      {"--policy", "P", "assignment policy: roundrobin | locality (default locality)",
       [&pool](const char* s) { pool.policy = ran::parse_policy(s); }},
      {"--json", "[DIR]", "write DIR/ran_slot_sim.json (default DIR: .)",
       cli::path(json_dir)},
  });

  ran::TrafficGenerator gen(traffic);
  ran::SlotScheduler sched(pool, traffic.groups);
  const kern::MmseLayout& lay = sched.layout_for_group(0);
  std::printf(
      "carrier: %u subcarriers x %u symbols (%llu problems/TTI), slot = %.1f us\n",
      traffic.carrier.num_subcarriers(), traffic.carrier.symbols_per_slot,
      static_cast<unsigned long long>(traffic.carrier.problems_per_tti()),
      traffic.carrier.numerology.slot_seconds() * 1e6);
  std::printf(
      "pool: %u cluster(s) x %u cores/batch x %u problems/core, %u host thread(s), "
      "%.1f GHz, %s assignment\n\n",
      pool.num_clusters, lay.num_cores, pool.problems_per_core, pool.host_threads,
      clock_ghz, ran::policy_name(pool.policy));

  sim::Table slots = ran::slot_report_header();
  const auto wall_start = std::chrono::steady_clock::now();
  u64 total_problems = 0;
  std::vector<ran::SlotResult> history;
  history.reserve(ttis);
  ran::SlotResult last;
  for (u32 t = 0; t < ttis; ++t) {
    const ran::SlotWorkload slot = gen.next_slot();
    ran::SlotResult result = sched.run_slot(slot);
    const ran::SlotTiming timing =
        ran::slot_timing(result, traffic.carrier, clock_ghz * 1e9);
    ran::add_slot_row(slots, result, timing);
    total_problems += result.problems;
    ran::SlotResult slim = result;
    slim.detected_bits.clear();
    slim.trace.clear();
    history.push_back(std::move(slim));
    last = std::move(result);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();

  slots.print();
  if (!json_dir.empty()) slots.write_json(json_dir + "/ran_slot_sim.json");
  const ran::SlotTiming timing =
      ran::slot_timing(last, traffic.carrier, clock_ghz * 1e9);
  std::printf("\nper-cluster utilization (last TTI):\n");
  ran::cluster_report(last).print();
  std::printf("\nper-symbol critical path (last TTI):\n");
  sim::Table symbols = ran::symbol_report(last, timing);
  symbols.print();

  const ran::DeadlineReport report =
      ran::deadline_report(last, traffic.carrier, clock_ghz * 1e9);
  std::printf("\n%s: latency %.1f us vs %.1f us deadline (margin %+.1f%%)\n",
              timing.meets_deadline() ? "DEADLINE MET" : "DEADLINE MISSED",
              timing.latency_seconds() * 1e6, timing.tti_seconds * 1e6,
              timing.margin_fraction() * 100.0);
  std::printf("program reloads (last TTI): %llu switches, %llu cycles "
              "(%.2f%% of cluster busy time)\n",
              static_cast<unsigned long long>(report.reloads),
              static_cast<unsigned long long>(report.reload_cycles),
              report.reload_fraction() * 100.0);
  const ran::AggregateReport agg =
      ran::aggregate_report(history, traffic.carrier, clock_ghz * 1e9);
  std::printf("\nrun summary (%llu TTIs): p50 %.1f us, p99 %.1f us, worst %.1f us, "
              "%llu deadline miss(es) (%.1f%%), %llu reloads (%llu cycles)\n",
              static_cast<unsigned long long>(agg.slots),
              agg.p50_latency_seconds() * 1e6, agg.p99_latency_seconds() * 1e6,
              agg.worst_latency_seconds() * 1e6,
              static_cast<unsigned long long>(agg.misses),
              agg.miss_fraction() * 100.0,
              static_cast<unsigned long long>(agg.reloads),
              static_cast<unsigned long long>(agg.reload_cycles));
  std::printf("host: simulated %u TTI(s), %llu subcarrier problems, in %.2f s "
              "wall clock (%.0f problems/s)\n",
              ttis, static_cast<unsigned long long>(total_problems), wall_s,
              wall_s > 0 ? total_problems / wall_s : 0.0);
  return timing.meets_deadline() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const SimError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
