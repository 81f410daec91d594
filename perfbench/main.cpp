// Repository benchmark program: runs one workload for a time budget, checks
// its outputs, and prints every metric by name and unit. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --reference FILE --scratch DIR [--trace-out FILE]
//   perfbench --update-reference FILE --seeds 1,2,...
//
// Checked outputs: every episode's items are compared with the committed
// reference of (workload, seed); on a seed the reference does not hold, with
// the run's first episode instead. --update-reference is the one way to
// rewrite the reference file.
//
// Exit codes: 0 = result printed; 2 = usage or simulator error; 3 = a
// mechanism guard failed (the workload stopped exercising its layer).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "build_stamp.h"
#include "common/error.h"
#include "sim/report.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Options {
  Workload workload = Workload::kFarmBusy;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string scratch = ".";
  std::string trace_out;
  std::string update_reference;  // output path; empty = measure
  std::vector<u64> seeds;
};

struct GuardError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
  bool exact;  // a function of the inputs only (else host-dependent)
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0')
    usage_error(flag + " expects a non-negative integer, got '" + text + "'");
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const char* value = argv[++i];
    if (arg == "--workload") {
      if (!parse_workload(value, &opt.workload))
        usage_error(std::string("unknown workload '") + value + "'");
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(arg, value);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(arg, value));
    } else if (arg == "--trace") {
      const u64 t = parse_u64(arg, value);
      if (t > 1) usage_error("--trace expects 0 or 1");
      opt.trace = t == 1;
    } else if (arg == "--reference") {
      opt.reference = value;
    } else if (arg == "--scratch") {
      opt.scratch = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--update-reference") {
      opt.update_reference = value;
    } else if (arg == "--seeds") {
      std::stringstream list(value);
      for (std::string s; std::getline(list, s, ',');)
        opt.seeds.push_back(parse_u64(arg, s.c_str()));
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  if (opt.update_reference.empty() && !have_workload) usage_error("--workload is required");
  if (opt.update_reference.empty() && opt.reference.empty())
    usage_error("--reference is required");
  if (!opt.update_reference.empty() && opt.seeds.empty())
    usage_error("--update-reference needs --seeds");
  return opt;
}

/// Removes the run's snapshot directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& parent)
      : path(std::filesystem::path(parent) / tsim::sim::strf("snapshots-%d", getpid())) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// ---- reference digests ----------------------------------------------------

using Reference = std::map<std::pair<std::string, u64>, Items>;

/// Lines "<workload> <seed> <output> <digest>"; '#' starts a comment line.
Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot read reference file '" + path + "'");
  Reference ref;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, item, hex;
    u64 seed = 0;
    if (!(fields >> workload >> seed >> item >> hex))
      usage_error("malformed reference line: " + line);
    ref[{workload, seed}].emplace_back(item, std::strtoull(hex.c_str(), nullptr, 16));
  }
  return ref;
}

int update_reference(const Options& opt) {
  std::FILE* f = std::fopen(opt.update_reference.c_str(), "w");
  if (f == nullptr) usage_error("cannot write '" + opt.update_reference + "'");
  const ScratchDir scratch(opt.scratch);
  std::fprintf(f,
               "# Digests of every checked output of the benchmark workloads:\n"
               "# <workload> <seed> <output> <FNV-1a 64>. Rewritten only by\n"
               "#   python3 perfbench/run.py --update-reference\n");
  for (const Workload w : kAllWorkloads) {
    for (const u64 seed : opt.seeds) {
      const Episode ep = run_episode(w, seed, scratch.path.string(), nullptr);
      for (const auto& [item, digest] : ep.items)
        std::fprintf(f, "%s %llu %s %016llx\n", workload_name(w),
                     static_cast<unsigned long long>(seed), item.c_str(),
                     static_cast<unsigned long long>(digest));
      std::printf("%s seed %llu: %zu outputs\n", workload_name(w),
                  static_cast<unsigned long long>(seed), ep.items.size());
    }
  }
  return std::fclose(f) == 0 ? 0 : 2;
}

/// Counts mismatches of `got` against `want`, item by item (a missing or
/// extra item is a mismatch).
u64 count_mismatches(const Items& want, const Items& got) {
  u64 failed = 0;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i)
    if (i >= want.size() || i >= got.size() || want[i] != got[i]) ++failed;
  return failed;
}

// ---- run stamp ---------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_stamp(const Options& opt) {
  std::printf("perfbench | workload %s | seed %llu | %g s | %s\n",
              workload_name(opt.workload), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? "traced" : "untraced");
  std::printf("host: nproc %u | cpu %s\n", std::thread::hardware_concurrency(),
              cpu_model().c_str());
  std::printf("build: %s | %s | flags %s | TSIM_MARCH_NATIVE=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS, PERFBENCH_MARCH_NATIVE);
}

// ---- metrics ---------------------------------------------------------------------

/// Host times of the untraced ([0]) or traced ([1]) timed episodes. Every
/// episode of a run repeats the same deterministic work in the same order,
/// so each unit of work is timed as its least host time over the episodes:
/// the cost of the work itself, without the slow spells that neighbouring
/// load on a shared host puts into some of the repeats.
struct Timing {
  std::vector<double> tti_s;   // per latency sample (Cell::step, slot, point)
  std::vector<double> loop_s;  // per closed-loop unit (Episode::loop_s)
  u64 ttis = 0;                // TTIs of one episode
  u32 episodes = 0;

  void add(const Episode& ep) {
    keep_least(tti_s, ep.tti_s);
    keep_least(loop_s, ep.loop_s);
    ttis = ep.ttis;
    ++episodes;
  }
  /// Simulated TTIs per host second of one episode's closed loop.
  double rate() const {
    double total = 0.0;
    for (const double s : loop_s) total += s;
    return total == 0.0 ? 0.0 : static_cast<double>(ttis) / total;
  }

 private:
  void keep_least(std::vector<double>& least, const std::vector<double>& s) const {
    if (episodes == 0) {
      least = s;
      return;
    }
    if (s.size() != least.size())
      throw tsim::SimError("episodes of one run timed a different number of units");
    for (size_t i = 0; i < s.size(); ++i) least[i] = std::min(least[i], s[i]);
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Metrics that are exact functions of the inputs, in both modes.
std::vector<Metric> exact_metrics(const Episode& ep, double mismatch_frac) {
  tsim::mac::HarqStats harq;
  for (const tsim::mac::CellReport& r : ep.reports) {
    harq.acks += r.harq.acks;
    harq.drops += r.harq.drops;
  }
  return {
      {"mismatch_frac", "fraction", mismatch_frac, true},
      {"sim_slot_us.worst", "us", static_cast<double>(ep.worst_cycles) / 1e3, true},
      {"residual_bler", "fraction", harq.residual_bler(), true},
      {"ber_gap", "fraction", ep.ber_gap, true},
  };
}

std::vector<Metric> end_to_end_metrics(const Timing& untraced,
                                       const std::vector<double>& setup_s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"ttis_per_s", "1/s", untraced.rate(), false},
      {"tti_host_ms.p50", "ms", percentile(untraced.tti_s, 0.5) * 1e3, false},
      {"tti_host_ms.p90", "ms", percentile(untraced.tti_s, 0.9) * 1e3, false},
      {"setup_s", "s", median(setup_s), false},
      {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0, false},
  };
}

std::vector<Metric> per_layer_metrics(Workload w, const Tracer& tracer,
                                      const Timing& untraced, const Timing& traced,
                                      const Episode& ep, const IssProbe& probe) {
  const std::map<std::string, Tracer::Stat> st = tracer.stats();
  const auto get = [&](const char* name) {
    const auto it = st.find(name);
    return it == st.end() ? Tracer::Stat{} : it->second;
  };
  const Tracer::Stat tti = get("tti");
  const Tracer::Stat slot = get("ran.slot");
  const Tracer::Stat busy = get("mac.step.busy");
  const Tracer::Stat save = get("sim.snapshot_save");
  const Tracer::Stat construct = get("dse.construct");
  const bool farm = w == Workload::kFarmBusy || w == Workload::kFarmIdle;

  u64 pdus = 0, retx = 0;
  for (const tsim::mac::CellReport& r : ep.reports) {
    pdus += r.pdus;
    retx += r.harq.retx;
  }
  // Instructions retired per host second of the calls that run L1, per pool
  // thread, so that it compares with the single-threaded probe. Every
  // episode retires the same instructions.
  const double l1_s = (slot.count > 0 ? slot.total_s : busy.total_s) * pool_threads(w);
  const u64 traced_episodes = get("setup").count;
  const double sim_mips =
      ratio(static_cast<double>(ep.instructions * traced_episodes), l1_s) / 1e6;
  const double construct_frac =
      w == Workload::kDseSweep
          ? ratio(construct.total_s, get("dse.sweep").total_s)
          : ratio(get("setup").total_s, get("setup").total_s + tti.total_s);
  const double traced_rate = traced.rate();
  const double snapshot_kb_last = ep.snapshot_kb.empty() ? 0.0 : ep.snapshot_kb.back();
  double snapshot_kb_mean = 0.0;
  for (const double kb : ep.snapshot_kb) snapshot_kb_mean += kb;
  snapshot_kb_mean = ratio(snapshot_kb_mean, static_cast<double>(ep.snapshot_kb.size()));

  return {
      {"mac.request_ms", "ms", get("mac.request").mean_s() * 1e3, false},
      {"mac.feedback_ms", "ms", get("mac.feedback").mean_s() * 1e3, false},
      {"mac.retx_frac", "fraction", ratio(static_cast<double>(retx), static_cast<double>(pdus)), true},
      {"mac.idle_tti_frac", "fraction",
       farm ? ratio(static_cast<double>(ep.idle_ttis), static_cast<double>(ep.ttis)) : 0.0, true},
      {"mac.idle_tti_us", "us", get("mac.step.idle").mean_s() * 1e6, false},
      {"mac.busy_tti_ms", "ms",
       (busy.count > 0 ? busy.mean_s() : (farm ? tti.mean_s() : 0.0)) * 1e3, false},
      {"ran.traffic_ms", "ms", get("ran.traffic").mean_s() * 1e3, false},
      {"ran.slot_ms", "ms", slot.mean_s() * 1e3, false},
      {"ran.slot_frac", "fraction", ratio(slot.total_s, tti.total_s), false},
      {"ran.construct_frac", "fraction", construct_frac, false},
      {"ran.batches_per_tti", "count",
       ratio(static_cast<double>(ep.batches), static_cast<double>(ep.ttis)), true},
      {"ran.reloads_per_tti", "count",
       ratio(static_cast<double>(ep.reloads), static_cast<double>(ep.ttis)), true},
      {"ran.shrunk_batch_frac", "fraction",
       ratio(static_cast<double>(ep.ff.shrunk_batches),
             static_cast<double>(ep.ff.full_batches + ep.ff.shrunk_batches)), true},
      {"ran.park_frac", "fraction", ep.ff.park_fraction(), true},
      {"ran.overhead_frac", "fraction", 1.0 - ratio(sim_mips, probe.mips), false},
      {"iss.sim_mips", "MIPS", sim_mips, false},
      {"iss.batch_mips", "MIPS", probe.mips, false},
      {"iss.lockstep_frac", "fraction", probe.lockstep_frac, true},
      {"iss.avg_width", "harts", probe.avg_width, true},
      {"sim.snapshot_save_ms", "ms", save.mean_s() * 1e3, false},
      {"sim.snapshot_load_ms", "ms", get("sim.snapshot_load").mean_s() * 1e3, false},
      {"sim.checkpoint_frac", "fraction", ratio(save.total_s, tti.total_s), false},
      {"sim.snapshot_kb", "KB", snapshot_kb_mean, true},
      {"sim.snapshot_kb.last", "KB", snapshot_kb_last, true},
      {"dse.construct_ms", "ms", construct.mean_s() * 1e3, false},
      {"dse.warm_frac", "fraction",
       ratio(static_cast<double>(ep.warm_hits), static_cast<double>(ep.points.size())), true},
      {"dse.pareto_ms", "ms", get("dse.pareto").mean_s() * 1e3, false},
      {"trace.ttis_per_s", "1/s", traced_rate, false},
      {"trace.overhead_frac", "fraction",
       1.0 - ratio(traced_rate, untraced.rate()), false},
      {"trace.unattributed_frac", "fraction", ratio(tti.self_s, tti.total_s), false},
  };
}

void check_guards(Workload w, const Episode& ep, const IssProbe& probe) {
  const auto require = [&](bool ok, const char* what) {
    if (!ok)
      throw GuardError(std::string(workload_name(w)) + " no longer exercises its layer: " +
                       what);
  };
  switch (w) {
    case Workload::kFarmBusy:
      require(ep.idle_ttis == 0 && ep.ff.shrunk_batches == 0,
              "fast-forward fired (idle TTIs or shrunk batches)");
      break;
    case Workload::kFarmIdle:
      require(ep.idle_ttis > 0, "no quiescent TTI was skipped");
      require(ep.ff.shrunk_batches > 0, "no batch was shrunk");
      require(!ep.snapshot_kb.empty(), "no snapshot was saved");
      require(ep.self_checks > 0 && ep.self_failed == 0,
              "the restored snapshot's report differs from the original");
      break;
    case Workload::kSlotPaper:
      require(ep.idle_ttis == 0 && ep.ff.shrunk_batches == 0, "fast-forward fired");
      require(probe.avg_width >= 32.0, "ISS convergence batches narrower than 32 harts");
      require(ep.calibrated_geometries == 2, "fewer than 2 geometries calibrated");
      break;
    case Workload::kDseSweep:
      require(ep.warm_hits > 0, "no point reused a sibling's warm state");
      break;
  }
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-26s %16.6f %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.exact ? "exact" : "host-dependent");
}

int measure(const Options& opt) {
  print_stamp(opt);
  const Reference reference = load_reference(opt.reference);
  const auto ref_it = reference.find({workload_name(opt.workload), opt.seed});
  const bool committed = ref_it != reference.end();
  std::printf("reference: %s\n", committed ? "committed digests"
                                           : "held-out seed (episodes checked "
                                             "against the first episode)");

  const ScratchDir scratch(opt.scratch);
  Tracer tracer;
  Timing timing[2];
  std::vector<double> setup_s;
  Items expected = committed ? ref_it->second : Items{};
  u64 attempted = 0, failed = 0;
  Episode last;
  u32 episodes = 0;
  // Whole episodes until the budget is spent. The first is a warm-up (page
  // faults, first translations): it is checked, and it is the baseline of a
  // held-out seed, but it is not timed, and its set-up is not counted. A traced run then alternates traced
  // and untraced episodes, to measure the tracing overhead.
  const double start = now_s();
  for (; episodes < 3 || now_s() - start < opt.seconds; ++episodes) {
    const bool traced = opt.trace && episodes % 2 == 1;
    Episode ep = run_episode(opt.workload, opt.seed, scratch.path.string(),
                             traced ? &tracer : nullptr);
    if (expected.empty()) {
      expected = ep.items;
    } else {
      attempted += ep.items.size();
      failed += count_mismatches(expected, ep.items);
    }
    attempted += ep.self_checks;
    failed += ep.self_failed;
    if (episodes > 0) {
      timing[traced ? 1 : 0].add(ep);
      setup_s.push_back(ep.setup_s);
    }
    last = std::move(ep);
  }
  const double mismatch_frac = ratio(static_cast<double>(failed), static_cast<double>(attempted));

  const bool probe_needed = opt.trace || opt.workload == Workload::kSlotPaper;
  const IssProbe probe =
      probe_needed ? iss_probe(opt.workload, opt.seed, opt.trace ? 1.0 : 0.0) : IssProbe{};
  check_guards(opt.workload, last, probe);

  std::printf("%u episode(s) (1 warm-up; %u untraced, %u traced timed), %zu latency "
              "sample(s) per episode; %llu/%llu checked output(s) differ\n",
              episodes, timing[0].episodes, timing[1].episodes, last.tti_s.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("setup (s): min %.6f, median %.6f, max %.6f over %zu episode(s)\n",
              percentile(setup_s, 0.0), median(setup_s), percentile(setup_s, 1.0),
              setup_s.size());
  for (const Timing& t : timing) {
    if (t.episodes == 0) continue;
    std::printf("%s: %.3f TTIs/s from the least time of each unit over %u episode(s)\n",
                &t == &timing[0] ? "untraced" : "traced", t.rate(), t.episodes);
  }
  const std::vector<Metric> exact = exact_metrics(last, mismatch_frac);
  std::vector<Metric> reported;
  if (opt.trace) {
    reported = per_layer_metrics(opt.workload, tracer, timing[0], timing[1], last, probe);
    reported.insert(reported.end(), exact.begin(), exact.end());
    std::printf("per-layer metrics (traced episodes; ISS probe %u harts):\n", probe.harts);
    print_metrics(reported);
    std::printf("untraced ttis_per_s in the same run: %.3f\n", timing[0].rate());
    if (!opt.trace_out.empty() && !tracer.write_json(opt.trace_out))
      throw tsim::SimError("cannot write the span file '" + opt.trace_out + "'");
  } else {
    reported = end_to_end_metrics(timing[0], setup_s);
    std::printf("end-to-end metrics:\n");
    print_metrics(reported);
    std::printf("exact outputs:\n");
    print_metrics(exact);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < reported.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                reported[i].name.c_str(), reported[i].value, reported[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  // Keep freed memory in the process: allocations up to glibc's largest
  // mmap threshold come from the heap, and the heap is never trimmed. The
  // warm-up episode faults the pages in; every later repeat reuses them, so
  // the timed episodes measure the program's work, not the kernel's page
  // faults, whose cost on a shared virtual machine follows the neighbours'
  // memory traffic.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  try {
    return opt.update_reference.empty() ? measure(opt) : update_reference(opt);
  } catch (const GuardError& e) {
    std::fprintf(stderr, "perfbench: GUARD FAILED: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
