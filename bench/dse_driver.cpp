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
// Flags: --json [DIR] (default "."), --csv DIR, --ttis N, --threads N,
// --clock GHZ, --seed S, --objectives LIST (comma-separated from
// {cores, latency, ber, reloads}). Unknown flags exit 2.
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <cstring>

#include "bench_common.h"
#include "dse/pareto.h"
#include "dse/space.h"
#include "dse/sweep.h"
#include "ran/traffic.h"

using namespace tsim;

namespace {

enum class Mode { kQuick, kMedium, kFull };

struct DriverOptions {
  Mode mode = Mode::kMedium;
  std::string json_dir;  // empty = no JSON
  std::string csv_dir;
  u32 ttis = 1;
  u32 host_threads = 1;
  double clock_ghz = 1.0;
  u64 seed = 0xD5E;
  // Warm-started construction: sibling points reuse translated programs and
  // locality calibration (metrics bit-identical to a cold sweep, only wall
  // time moves), so it defaults on; --cold-start is the reference mode.
  bool warm_start = true;
  std::vector<dse::Objective> objectives = dse::default_objectives();
};

/// Strict positive-integer flag parsing: rejects junk and negatives, which
/// would otherwise wrap through the u32 cast past the >= 1 checks.
u32 parse_positive_u32(const char* flag, const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  check(end != text && *end == '\0' && v >= 1 && v <= 0xFFFFFFFFll,
        std::string(flag) + " expects a positive integer, got '" + text + "'");
  return static_cast<u32>(v);
}

double parse_positive_double(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  check(end != text && *end == '\0' && v > 0.0,
        std::string(flag) + " expects a positive number, got '" + text + "'");
  return v;
}

u64 parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  // Requiring a leading digit rejects the whitespace/sign prefixes strtoull
  // would otherwise skip (and wrap: " -5" parses as a huge u64).
  check(std::isdigit(static_cast<unsigned char>(text[0])) && end != text &&
            *end == '\0',
        std::string(flag) + " expects a non-negative integer, got '" + text + "'");
  return static_cast<u64>(v);
}

void print_usage(std::FILE* f, const char* prog) {
  std::fprintf(f, "usage: %s [flags]\n", prog);
  std::fprintf(f, "  --quick | --full     sweep size (default: medium)\n");
  std::fprintf(f, "  --json [DIR]         write dse_pareto.json (default DIR: .)\n");
  std::fprintf(f, "  --csv DIR            write dse_pareto.csv into DIR\n");
  std::fprintf(f, "  --ttis N             slots per design point\n");
  std::fprintf(f, "  --threads N          host evaluation threads\n");
  std::fprintf(f, "  --clock GHZ          modelled cluster clock\n");
  std::fprintf(f, "  --seed S             traffic seed\n");
  std::fprintf(f, "  --warm-start / --cold-start\n");
  std::fprintf(f, "                       reuse warmed scheduler state across\n");
  std::fprintf(f, "                       sibling points (default on; metrics\n");
  std::fprintf(f, "                       are bit-identical to a cold sweep)\n");
  std::fprintf(f, "  --objectives A,B,..  Pareto objectives\n");
  std::fprintf(f, "  --help               this message\n");
}

DriverOptions parse_args(int argc, char** argv) {
  DriverOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      check(i + 1 < argc, std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.mode = Mode::kQuick;
    } else if (std::strcmp(arg, "--full") == 0) {
      opt.mode = Mode::kFull;
    } else if (std::strcmp(arg, "--json") == 0) {
      // Directory operand is optional: bare --json writes ./dse_pareto.json.
      // Anything flag-shaped is not a directory (so a typo like `--json -q`
      // still hits the unknown-flag error instead of becoming a path).
      opt.json_dir = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : ".";
    } else if (std::strcmp(arg, "--csv") == 0) {
      opt.csv_dir = next("--csv");
    } else if (std::strcmp(arg, "--ttis") == 0) {
      opt.ttis = parse_positive_u32("--ttis", next("--ttis"));
    } else if (std::strcmp(arg, "--threads") == 0) {
      opt.host_threads = parse_positive_u32("--threads", next("--threads"));
    } else if (std::strcmp(arg, "--clock") == 0) {
      opt.clock_ghz = parse_positive_double("--clock", next("--clock"));
    } else if (std::strcmp(arg, "--seed") == 0) {
      opt.seed = parse_u64("--seed", next("--seed"));
    } else if (std::strcmp(arg, "--warm-start") == 0) {
      opt.warm_start = true;
    } else if (std::strcmp(arg, "--cold-start") == 0) {
      opt.warm_start = false;
    } else if (std::strcmp(arg, "--objectives") == 0) {
      opt.objectives = dse::parse_objectives(next("--objectives"));
    } else {
      throw SimError(std::string("unknown flag '") + arg + "'");
    }
  }
  return opt;
}

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

ran::TrafficConfig traffic_for(Mode mode, u64 seed) {
  ran::TrafficConfig traffic;
  traffic.groups = ran::mixed_geometry_groups();
  traffic.seed = seed;
  switch (mode) {
    case Mode::kQuick:
      traffic.carrier.bandwidth_hz = 2e6;  // ~65 subcarriers
      traffic.carrier.symbols_per_slot = 2;
      break;
    case Mode::kMedium:
      traffic.carrier.bandwidth_hz = 10e6;  // ~327 subcarriers
      traffic.carrier.symbols_per_slot = 4;
      break;
    case Mode::kFull:
      traffic.carrier = phy::CarrierConfig::paper_50mhz();
      break;
  }
  return traffic;
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
  const DriverOptions opt = parse_args(argc, argv);
  const dse::DesignSpace space = space_for(opt.mode);

  dse::SweepConfig cfg;
  cfg.traffic = traffic_for(opt.mode, opt.seed);
  cfg.ttis = opt.ttis;
  cfg.clock_hz = opt.clock_ghz * 1e9;
  cfg.host_threads = opt.host_threads;
  cfg.warm_start = opt.warm_start;

  std::printf("dse_driver | %s sweep: %zu points over (clusters x cores x "
              "precision x problems/core x policy)\n",
              mode_name(opt.mode), space.enumerate().size());
  std::printf("workload: %u sc x %u sym (%llu problems/TTI) x %u TTI(s), "
              "%zu UE geometries, seed 0x%llx\n",
              cfg.traffic.carrier.num_subcarriers(),
              cfg.traffic.carrier.symbols_per_slot,
              static_cast<unsigned long long>(cfg.traffic.carrier.problems_per_tti()),
              cfg.ttis, cfg.traffic.groups.size(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("objectives:");
  for (const dse::Objective o : opt.objectives)
    std::printf(" %s", dse::name_of(o));
  std::printf(" (all minimized)\n\n");

  const bench::Stopwatch wall;
  const dse::SweepResult result = dse::run_sweep(space, cfg);
  const std::vector<u32> front = dse::pareto_front(result.points, opt.objectives);

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

  if (!opt.csv_dir.empty()) table.write_csv(opt.csv_dir + "/dse_pareto.csv");
  if (!opt.json_dir.empty()) {
    const std::string path =
        bench::BenchOptions::write_json_table(table, opt.json_dir, "dse_pareto");
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
