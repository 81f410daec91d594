// Design-space-exploration driver: the paper's headline workflow as a CLI.
// Sweeps candidate transceiver configurations (clusters x cores/cluster x
// arithmetic precision x problems/core x assignment policy) end-to-end
// through the RAN slot engine - every point processes the same generated
// TTIs on emulated clusters - and extracts the Pareto front over
// configurable objectives (default: total cores vs worst-slot latency vs
// detection BER).
//
//   ./dse_driver                 medium sweep (10 MHz carrier, 72 points)
//   ./dse_driver --quick         CI-sized sweep (2 MHz carrier, 24 points)
//   ./dse_driver --full          paper-scale carrier (1638 sc x 14 symbols)
//   ./dse_driver --quick --json  also write ./dse_pareto.json (JSON rows;
//                                CI validates and archives them, and
//                                tests/golden/dse_quick.json pins them
//                                without the host-timed columns)
//
// `./dse_driver --help` lists every flag.
#include <cstdio>

#include "bench_common.h"
#include "dse/pareto.h"
#include "dse/space.h"
#include "dse/sweep.h"
#include "ran/traffic.h"

using namespace tsim;

namespace {

enum class Mode { kQuick, kMedium, kFull };

/// The swept axes and workload per mode. All three share the mixed-geometry
/// UE population (three (ntx, nrx) geometries sharing the carrier), so the
/// precision axis moves BER and the policy/cluster axes move reloads and
/// latency - every objective has real trade-offs to expose.
dse::DesignSpace space_for(Mode mode) {
  dse::DesignSpace space;
  switch (mode) {
    case Mode::kQuick:
      space.clusters = {1, 2};
      space.cores_per_cluster = {16, 32};
      space.precisions = {kern::Precision::k16Half, kern::Precision::k16CDotp,
                          kern::Precision::k8WDotp};
      space.problems_per_core = {1, 4};
      space.policies = {ran::AssignPolicy::kLocality};
      break;
    case Mode::kMedium:
      space.clusters = {1, 2, 4};
      space.cores_per_cluster = {16, 32, 64};
      space.precisions = {kern::Precision::k16Half, kern::Precision::k16WDotp,
                          kern::Precision::k16CDotp, kern::Precision::k8WDotp};
      space.problems_per_core = {1, 4};
      space.policies = {ran::AssignPolicy::kLocality};
      break;
    case Mode::kFull:
      space.clusters = {2, 4};
      space.cores_per_cluster = {64, 256, 1024};
      space.precisions = {kern::Precision::k16Half, kern::Precision::k16WDotp,
                          kern::Precision::k16CDotp, kern::Precision::k8WDotp};
      space.problems_per_core = {1, 4};
      space.policies = {ran::AssignPolicy::kLocality};
      break;
  }
  return space;
}

phy::CarrierConfig carrier_for(Mode mode) {
  phy::CarrierConfig carrier;
  switch (mode) {
    case Mode::kQuick:
      carrier.bandwidth_hz = 2e6;  // ~65 subcarriers
      carrier.symbols_per_slot = 2;
      break;
    case Mode::kMedium:
      carrier.bandwidth_hz = 10e6;  // ~327 subcarriers
      carrier.symbols_per_slot = 4;
      break;
    case Mode::kFull:
      carrier = phy::CarrierConfig::paper_50mhz();
      break;
  }
  return carrier;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kQuick: return "quick";
    case Mode::kMedium: return "medium";
    case Mode::kFull: return "full";
  }
  return "?";
}

int run(int argc, char** argv) {
  Mode mode = Mode::kMedium;
  dse::SweepConfig cfg;
  cfg.traffic.seed = 0xD5E;
  // Warm-started construction: sibling points reuse translated programs and
  // locality calibration (metrics bit-identical to a cold sweep, only wall
  // time moves), so it defaults on; --cold-start is the reference mode.
  cfg.warm_start = true;
  std::vector<dse::Objective> objectives = dse::default_objectives();
  std::string json_dir;
  std::string csv_dir;
  cli::parse(argc, argv, {
      {"--quick", nullptr, "CI-sized sweep (default: medium)",
       cli::set_to(mode, Mode::kQuick)},
      {"--full", nullptr, "paper-scale sweep (default: medium)",
       cli::set_to(mode, Mode::kFull)},
      {"--json", "[DIR]", "write DIR/dse_pareto.json (default DIR: .)",
       cli::path(json_dir)},
      {"--csv", "DIR", "write DIR/dse_pareto.csv", cli::path(csv_dir)},
      {"--ttis", "N", "slots per design point (default 1)", cli::positive(cfg.ttis)},
      {"--threads", "N", "host evaluation threads (default 1)",
       cli::positive(cfg.host_threads)},
      {"--clock", "GHZ", "modelled cluster clock (default 1.0)",
       [&](const char* s) { cfg.clock_hz = cli::parse_double(s, true) * 1e9; }},
      {"--seed", "S", "traffic seed (default 0xD5E)",
       cli::non_negative(cfg.traffic.seed)},
      {"--warm-start", nullptr, "reuse warmed state across sibling points (default)",
       cli::set_to(cfg.warm_start, true)},
      {"--cold-start", nullptr, "build every point cold (metrics are bit-identical)",
       cli::set_to(cfg.warm_start, false)},
      {"--objectives", "A,B,..", "Pareto objectives from {cores, latency, ber, reloads}",
       [&](const char* s) { objectives = dse::parse_objectives(s); }},
  });
  const dse::DesignSpace space = space_for(mode);
  cfg.traffic.carrier = carrier_for(mode);
  cfg.traffic.groups = ran::mixed_geometry_groups();

  std::printf("dse_driver | %s sweep: %zu points over (clusters x cores x "
              "precision x problems/core x policy)\n",
              mode_name(mode), space.enumerate().size());
  std::printf("workload: %u sc x %u sym (%llu problems/TTI) x %u TTI(s), "
              "%zu UE geometries, seed 0x%llx\n",
              cfg.traffic.carrier.num_subcarriers(),
              cfg.traffic.carrier.symbols_per_slot,
              static_cast<unsigned long long>(cfg.traffic.carrier.problems_per_tti()),
              cfg.ttis, cfg.traffic.groups.size(),
              static_cast<unsigned long long>(cfg.traffic.seed));
  std::printf("objectives:");
  for (const dse::Objective o : objectives)
    std::printf(" %s", dse::name_of(o));
  std::printf(" (all minimized)\n\n");

  const bench::Stopwatch wall;
  const dse::SweepResult result = dse::run_sweep(space, cfg);
  const std::vector<u32> front = dse::pareto_front(result.points, objectives);

  const sim::Table table = dse::sweep_table(result, front);
  table.print();
  if (!result.skipped.empty()) {
    std::printf("\nskipped (infeasible) points:\n");
    for (const dse::SkippedPoint& s : result.skipped)
      std::printf("  %s: %s\n", s.point.label().c_str(), s.reason.c_str());
  }

  std::printf("\nPareto front (%zu of %zu evaluated points):\n", front.size(),
              result.points.size());
  dse::front_table(result, front).print();
  std::printf("\nswept %zu points (%zu skipped) in %.1f s wall clock (%s)\n",
              result.points.size(), result.skipped.size(), wall.seconds(),
              cfg.warm_start ? "warm-started" : "cold-started");

  if (!csv_dir.empty()) table.write_csv(csv_dir + "/dse_pareto.csv");
  if (!json_dir.empty()) {
    const std::string path =
        bench::BenchOptions::write_json_table(table, json_dir, "dse_pareto");
    check(!path.empty(), "failed to write the JSON trajectory");
    std::printf("wrote %s\n", path.c_str());
  }

  if (front.empty()) {
    std::fprintf(stderr, "error: empty Pareto front\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
