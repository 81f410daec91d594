// Multi-cell gNB farm soak driver: N independent cells of persistent UEs
// with closed-loop HARQ traffic (src/mac/), shard-parallel across forked
// worker processes, reported through the shared JSON-row format.
//
//   ./farm_driver --quick                    CI-sized soak (2 MHz carrier)
//   ./farm_driver --quick --shards 4         same numbers, 4 worker processes
//   ./farm_driver --quick --json             also write ./farm_soak.json
//   ./farm_driver --full                     paper-scale carrier per cell
//
// The JSON rows are one CellReport per cell - exact integers only, and
// independent of --shards and --threads - so CI's farm-smoke step diffs the
// --shards 1 and --shards 2 outputs byte-for-byte to pin the shard-
// invariance contract (tests/golden/farm_*.json pin the rows themselves).
//
// Flags: --cells N, --ues N, --ttis N, --shards N, --threads N, --seed S,
// --quick | --full, --no-harq (single-shot A/B baseline), --burst (on/off
// arrival bursts + diurnal modulation), --json [DIR], --csv DIR.
//
// Fault injection & supervision (sim/fault.h + the mac/farm.h supervisor):
// --policy fail_fast|retry|degrade, --attempts N, --shard-timeout SECS,
// --inject-shard-crash/stall/garble S (host-level worker faults; recovery
// under --policy retry is byte-identical to a clean run - CI's fault-smoke
// step diffs the JSON), --fault-seed S, --hart-trap-rate/--hart-hang-rate R,
// --l1-flip-rate R, --no-ecc, --cluster-fail TTI [--cluster-fail-cluster C],
// --drop-ind/--delay-ind R, --delay-slots N, --harq-timeout SLOTS.
//
// Checkpoint / resume / bisect (mac/farm.h snapshot ladder):
// --checkpoint-every N --checkpoint-dir DIR write atomic per-cell snapshots
// every N TTIs; --resume restarts an interrupted soak from the newest valid
// snapshots (byte-identical to an uninterrupted run - CI's kill-and-resume
// step pins it with cmp); --bisect miss|degraded|bler=X [--bisect-cell C]
// binary-searches the snapshots for the first TTI where the predicate holds
// and replays only the final window with per-TTI tracing.
// Unknown flags exit 2.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "dse/space.h"
#include "mac/farm.h"

using namespace tsim;

namespace {

struct Options {
  u32 cells = 4;
  u32 ues = 32;
  u32 ttis = 100;
  u32 shards = 1;
  u32 host_threads = 2;
  u64 seed = 0xFA21;
  bool quick = false;
  bool full = false;
  bool no_harq = false;
  bool burst = false;
  // Event-driven fast-forward (quiescent-TTI skip + batch shrink). Reports
  // are bit-identical either way - CI's fastforward-smoke pins that with cmp
  // - so the faster path is the default.
  bool fastforward = true;
  u32 problems_per_core = 0;  // 0 = pool default
  u32 batch_cores = 0;        // 0 = pool default (as many as fit in L1)
  u32 cluster_cores = 0;      // 0 = the 16-core tiny cluster
  std::string json_dir;
  std::string csv_dir;
  // Supervisor + fault-injection knobs (defaults = clean run).
  mac::FarmPolicy policy = mac::FarmPolicy::kRetry;
  u32 attempts = 2;
  double shard_timeout_s = 0.0;
  sim::HostFaultConfig host_fault;
  sim::FaultConfig fault;
  u32 harq_timeout_slots = 0;
  // Checkpoint / resume / bisect.
  u32 checkpoint_every = 0;
  std::string checkpoint_dir;
  bool resume = false;
  std::string bisect;  // predicate spec; empty = normal soak
  u32 bisect_cell = 0;
};

u32 parse_positive_u32(const char* flag, const char* text) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  check(end != text && *end == '\0' && v >= 1 && v <= 0xFFFFFFFFll,
        std::string(flag) + " expects a positive integer, got '" + text + "'");
  return static_cast<u32>(v);
}

u64 parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  check(std::isdigit(static_cast<unsigned char>(text[0])) && end != text &&
            *end == '\0',
        std::string(flag) + " expects a non-negative integer, got '" + text + "'");
  return static_cast<u64>(v);
}

u32 parse_u32(const char* flag, const char* text) {
  const u64 v = parse_u64(flag, text);
  check(v <= 0xFFFFFFFFull,
        std::string(flag) + " value out of range: '" + text + "'");
  return static_cast<u32>(v);
}

double parse_rate(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  check(end != text && *end == '\0' && v >= 0.0,
        std::string(flag) + " expects a non-negative number, got '" + text + "'");
  return v;
}

void print_usage(std::FILE* f, const char* prog) {
  std::fprintf(f, "usage: %s [flags]\n", prog);
  std::fprintf(f, "  --cells N      gNB cells in the farm (default 4)\n");
  std::fprintf(f, "  --ues N        UEs per cell (default 32)\n");
  std::fprintf(f, "  --ttis N       closed-loop TTIs per cell (default 100)\n");
  std::fprintf(f, "  --shards N     forked worker processes (default 1)\n");
  std::fprintf(f, "  --threads N    host threads per cell's cluster pool\n");
  std::fprintf(f, "  --seed S       farm seed (default 0xFA21)\n");
  std::fprintf(f, "  --quick        CI-sized carrier (2 MHz x 2 symbols)\n");
  std::fprintf(f, "  --full         paper-scale carrier (50 MHz x 14 symbols)\n");
  std::fprintf(f, "  --no-harq      single-shot baseline (every CRC fail drops)\n");
  std::fprintf(f, "  --burst        on/off arrival bursts + diurnal modulation\n");
  std::fprintf(f, "  --fastforward / --no-fastforward\n");
  std::fprintf(f, "                 event-driven idle skip (default on; reports\n");
  std::fprintf(f, "                 are bit-identical to the cycle-by-cycle run)\n");
  std::fprintf(f, "  --ppc N        problems per core (default: pool default)\n");
  std::fprintf(f, "  --batch-cores N  cores per batch (default: L1-fit maximum)\n");
  std::fprintf(f, "  --cluster-cores N  cores per emulated cluster (multiple of\n");
  std::fprintf(f, "                 8; default: 16-core tiny cluster)\n");
  std::fprintf(f, "  --json [DIR]   write DIR/farm_soak.json (default DIR: .)\n");
  std::fprintf(f, "  --csv DIR      write DIR/farm_soak.csv\n");
  std::fprintf(f, "supervisor / fault injection:\n");
  std::fprintf(f, "  --policy P     fail_fast | retry | degrade (default retry)\n");
  std::fprintf(f, "  --attempts N   forked attempts per shard under retry\n");
  std::fprintf(f, "  --shard-timeout SECS  wall-clock bound per worker (0 = off)\n");
  std::fprintf(f, "  --inject-shard-crash S   shard S crashes mid-stream\n");
  std::fprintf(f, "  --inject-shard-stall S   shard S hangs (needs a timeout)\n");
  std::fprintf(f, "  --inject-shard-garble S  shard S emits truncated JSON\n");
  std::fprintf(f, "  --fault-attempts N  host faults fire while attempt <= N\n");
  std::fprintf(f, "  --fault-seed S      fault stream seed (default 0xF417)\n");
  std::fprintf(f, "  --hart-trap-rate R  P(transient hart trap | batch run)\n");
  std::fprintf(f, "  --hart-hang-rate R  P(stuck hart | batch run)\n");
  std::fprintf(f, "  --l1-flip-rate R    expected L1 bit upsets per batch run\n");
  std::fprintf(f, "  --no-ecc            disable the SECDED model (silent upsets)\n");
  std::fprintf(f, "  --cluster-fail TTI  kill one cluster per cell from this TTI\n");
  std::fprintf(f, "  --cluster-fail-cluster C  which cluster dies (default 0)\n");
  std::fprintf(f, "  --drop-ind R        P(SlotIndication lost | TTI)\n");
  std::fprintf(f, "  --delay-ind R       P(SlotIndication delayed | TTI)\n");
  std::fprintf(f, "  --delay-slots N     delivery delay of a delayed indication\n");
  std::fprintf(f, "  --harq-timeout N    HARQ feedback timeout in slots (0 = off)\n");
  std::fprintf(f, "checkpoint / resume / bisect:\n");
  std::fprintf(f, "  --checkpoint-every N  snapshot every cell every N TTIs\n");
  std::fprintf(f, "  --checkpoint-dir DIR  where the per-cell snapshots live\n");
  std::fprintf(f, "  --resume              resume from the newest valid snapshots\n");
  std::fprintf(f, "  --bisect PRED   find the first TTI where PRED holds\n");
  std::fprintf(f, "                  (miss | degraded | bler=X); exit 1 if never\n");
  std::fprintf(f, "  --bisect-cell C cell to bisect (default 0)\n");
  std::fprintf(f, "  --help         this message\n");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      check(i + 1 < argc, std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else if (std::strcmp(arg, "--cells") == 0) {
      opt.cells = parse_positive_u32("--cells", next("--cells"));
    } else if (std::strcmp(arg, "--ues") == 0) {
      opt.ues = parse_positive_u32("--ues", next("--ues"));
    } else if (std::strcmp(arg, "--ttis") == 0) {
      opt.ttis = parse_positive_u32("--ttis", next("--ttis"));
    } else if (std::strcmp(arg, "--shards") == 0) {
      opt.shards = parse_positive_u32("--shards", next("--shards"));
    } else if (std::strcmp(arg, "--threads") == 0) {
      opt.host_threads = parse_positive_u32("--threads", next("--threads"));
    } else if (std::strcmp(arg, "--seed") == 0) {
      opt.seed = parse_u64("--seed", next("--seed"));
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(arg, "--full") == 0) {
      opt.full = true;
    } else if (std::strcmp(arg, "--no-harq") == 0) {
      opt.no_harq = true;
    } else if (std::strcmp(arg, "--burst") == 0) {
      opt.burst = true;
    } else if (std::strcmp(arg, "--fastforward") == 0) {
      opt.fastforward = true;
    } else if (std::strcmp(arg, "--no-fastforward") == 0) {
      opt.fastforward = false;
    } else if (std::strcmp(arg, "--ppc") == 0) {
      opt.problems_per_core = parse_positive_u32("--ppc", next("--ppc"));
    } else if (std::strcmp(arg, "--batch-cores") == 0) {
      opt.batch_cores =
          parse_positive_u32("--batch-cores", next("--batch-cores"));
    } else if (std::strcmp(arg, "--cluster-cores") == 0) {
      opt.cluster_cores =
          parse_positive_u32("--cluster-cores", next("--cluster-cores"));
    } else if (std::strcmp(arg, "--policy") == 0) {
      opt.policy = mac::parse_farm_policy(next("--policy"));
    } else if (std::strcmp(arg, "--attempts") == 0) {
      opt.attempts = parse_positive_u32("--attempts", next("--attempts"));
    } else if (std::strcmp(arg, "--shard-timeout") == 0) {
      opt.shard_timeout_s = parse_rate("--shard-timeout", next("--shard-timeout"));
    } else if (std::strcmp(arg, "--inject-shard-crash") == 0) {
      opt.host_fault.crash_shard =
          parse_u32("--inject-shard-crash", next("--inject-shard-crash"));
    } else if (std::strcmp(arg, "--inject-shard-stall") == 0) {
      opt.host_fault.stall_shard =
          parse_u32("--inject-shard-stall", next("--inject-shard-stall"));
    } else if (std::strcmp(arg, "--inject-shard-garble") == 0) {
      opt.host_fault.garble_shard =
          parse_u32("--inject-shard-garble", next("--inject-shard-garble"));
    } else if (std::strcmp(arg, "--fault-attempts") == 0) {
      opt.host_fault.fault_attempts =
          parse_positive_u32("--fault-attempts", next("--fault-attempts"));
    } else if (std::strcmp(arg, "--fault-seed") == 0) {
      opt.fault.seed = parse_u64("--fault-seed", next("--fault-seed"));
    } else if (std::strcmp(arg, "--hart-trap-rate") == 0) {
      opt.fault.hart_trap_rate =
          parse_rate("--hart-trap-rate", next("--hart-trap-rate"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--hart-hang-rate") == 0) {
      opt.fault.hart_hang_rate =
          parse_rate("--hart-hang-rate", next("--hart-hang-rate"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--l1-flip-rate") == 0) {
      opt.fault.l1_flip_rate =
          parse_rate("--l1-flip-rate", next("--l1-flip-rate"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--no-ecc") == 0) {
      opt.fault.ecc = false;
    } else if (std::strcmp(arg, "--cluster-fail") == 0) {
      opt.fault.cluster_fail_tti =
          parse_u32("--cluster-fail", next("--cluster-fail"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--cluster-fail-cluster") == 0) {
      opt.fault.cluster_fail_id = parse_u32("--cluster-fail-cluster",
                                            next("--cluster-fail-cluster"));
    } else if (std::strcmp(arg, "--drop-ind") == 0) {
      opt.fault.drop_indication_rate = parse_rate("--drop-ind", next("--drop-ind"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--delay-ind") == 0) {
      opt.fault.delay_indication_rate =
          parse_rate("--delay-ind", next("--delay-ind"));
      opt.fault.enabled = true;
    } else if (std::strcmp(arg, "--delay-slots") == 0) {
      opt.fault.delay_slots =
          parse_positive_u32("--delay-slots", next("--delay-slots"));
    } else if (std::strcmp(arg, "--harq-timeout") == 0) {
      opt.harq_timeout_slots = parse_u32("--harq-timeout", next("--harq-timeout"));
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      opt.checkpoint_every =
          parse_positive_u32("--checkpoint-every", next("--checkpoint-every"));
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      opt.checkpoint_dir = next("--checkpoint-dir");
    } else if (std::strcmp(arg, "--resume") == 0) {
      opt.resume = true;
    } else if (std::strcmp(arg, "--bisect") == 0) {
      opt.bisect = next("--bisect");
      mac::parse_bisect_predicate(opt.bisect);  // fail fast on a bad spec
    } else if (std::strcmp(arg, "--bisect-cell") == 0) {
      opt.bisect_cell = parse_u32("--bisect-cell", next("--bisect-cell"));
    } else if (std::strcmp(arg, "--json") == 0) {
      // Optional operand, as in dse_driver: bare --json writes into ".".
      opt.json_dir = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : ".";
    } else if (std::strcmp(arg, "--csv") == 0) {
      opt.csv_dir = next("--csv");
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
  }
  check(!(opt.quick && opt.full), "--quick and --full are mutually exclusive");
  return opt;
}

mac::FarmConfig farm_config(const Options& opt) {
  mac::FarmConfig cfg;
  cfg.cells = opt.cells;
  cfg.shards = opt.shards;
  cfg.seed = opt.seed;
  cfg.ttis = opt.ttis;
  cfg.ues_per_cell = opt.ues;
  if (opt.quick) {
    cfg.carrier.bandwidth_hz = 2e6;  // ~65 subcarriers
    cfg.carrier.symbols_per_slot = 2;
  } else if (opt.full) {
    cfg.carrier = phy::CarrierConfig::paper_50mhz();
  } else {
    cfg.carrier.bandwidth_hz = 10e6;  // ~327 subcarriers
    cfg.carrier.symbols_per_slot = 4;
  }
  cfg.harq.enabled = !opt.no_harq;
  if (opt.burst) {
    cfg.burst.enabled = true;
    cfg.burst.duty = 0.5;
    cfg.burst.mean_on_slots = 8.0;
    cfg.burst.arrival_prob = 0.9;
    cfg.burst.diurnal_period_ttis = 50.0;
    cfg.burst.diurnal_depth = 0.5;
  }
  cfg.pool.host_threads = opt.host_threads;
  cfg.pool.fast_forward = opt.fastforward;
  if (opt.problems_per_core > 0) cfg.pool.problems_per_core = opt.problems_per_core;
  if (opt.batch_cores > 0) cfg.pool.batch_cores = opt.batch_cores;
  if (opt.cluster_cores > 0)
    cfg.pool.cluster = dse::cluster_for_cores(opt.cluster_cores);
  cfg.policy = opt.policy;
  cfg.max_shard_attempts = opt.attempts;
  cfg.shard_timeout_s = opt.shard_timeout_s;
  cfg.host_fault = opt.host_fault;
  cfg.fault = opt.fault;
  cfg.harq.feedback_timeout_slots = opt.harq_timeout_slots;
  cfg.checkpoint_every = opt.checkpoint_every;
  cfg.checkpoint_dir = opt.checkpoint_dir;
  cfg.resume = opt.resume;
  return cfg;
}

/// --bisect mode: O(log snapshots) restores + one replayed window instead of
/// a full re-run. Exit 0 when the predicate fires, 1 when it never does.
int run_bisect(const Options& opt, const mac::FarmConfig& cfg) {
  const mac::BisectPredicate pred = mac::parse_bisect_predicate(opt.bisect);
  std::printf("bisecting cell %u for first %s (snapshots in %s)\n",
              opt.bisect_cell, pred.describe().c_str(),
              cfg.checkpoint_dir.c_str());
  const mac::BisectResult res = mac::bisect_cell(cfg, opt.bisect_cell, pred);
  std::printf("probed %llu snapshot(s), replayed %llu TTI(s) from boundary "
              "%lld\n",
              static_cast<unsigned long long>(res.snapshots_loaded),
              static_cast<unsigned long long>(res.ttis_replayed),
              static_cast<long long>(res.window_start));
  for (const std::string& line : res.window_trace)
    std::printf("  %s\n", line.c_str());
  if (res.first_bad_tti < 0) {
    std::printf("predicate never fires in %u TTI(s)\n", cfg.ttis);
    return 1;
  }
  std::printf("first %s at TTI %lld\n", pred.describe().c_str(),
              static_cast<long long>(res.first_bad_tti));
  return 0;
}

int run(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const mac::FarmConfig cfg = farm_config(opt);
  if (!opt.bisect.empty()) return run_bisect(opt, cfg);

  std::printf("farm_driver | %u cell(s) x %u UE(s) x %u TTI(s), %u shard(s), "
              "seed 0x%llx\n",
              cfg.cells, cfg.ues_per_cell, cfg.ttis, cfg.shards,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("carrier: %u sc x %u sym | HARQ %s (%u processes, %u attempts) | "
              "arrivals %s\n\n",
              cfg.carrier.num_subcarriers(), cfg.carrier.symbols_per_slot,
              cfg.harq.enabled ? "on" : "OFF",
              cfg.harq.num_processes, cfg.harq.max_attempts,
              cfg.burst.enabled ? "bursty" : "full-buffer");
  if (!cfg.pool.fast_forward)
    std::printf("fast-forward OFF: cycle-by-cycle reference run\n");

  const bench::Stopwatch wall;
  const mac::FarmResult result = mac::run_farm(cfg);
  const double wall_s = wall.seconds();

  sim::Table table(mac::cell_report_header());
  for (const mac::CellReport& rep : result.cells)
    table.add_row(mac::cell_report_row(rep));

  const double tti_s = cfg.carrier.numerology.slot_seconds();
  std::printf("%-5s %6s %7s %7s %7s %7s %10s %8s %9s %7s\n", "cell", "pdus",
              "new_tx", "retx", "drops", "stalls", "res.BLER", "retx%",
              "Mb/s", "misses");
  for (const mac::CellReport& rep : result.cells)
    std::printf("%-5u %6llu %7llu %7llu %7llu %7llu %10.4f %7.1f%% %9.2f %7llu\n",
                rep.cell, static_cast<unsigned long long>(rep.pdus),
                static_cast<unsigned long long>(rep.harq.new_tx),
                static_cast<unsigned long long>(rep.harq.retx),
                static_cast<unsigned long long>(rep.harq.drops),
                static_cast<unsigned long long>(rep.harq.stalls),
                rep.residual_bler(), rep.retx_fraction() * 100.0,
                rep.delivered_mbps(tti_s),
                static_cast<unsigned long long>(rep.misses));

  const mac::CellReport total = result.total();
  std::printf("%-5s %6llu %7llu %7llu %7llu %7llu %10.4f %7.1f%% %9.2f %7llu\n",
              "TOTAL", static_cast<unsigned long long>(total.pdus),
              static_cast<unsigned long long>(total.harq.new_tx),
              static_cast<unsigned long long>(total.harq.retx),
              static_cast<unsigned long long>(total.harq.drops),
              static_cast<unsigned long long>(total.harq.stalls),
              total.residual_bler(), total.retx_fraction() * 100.0,
              total.delivered_mbps(tti_s),
              static_cast<unsigned long long>(total.misses));

  std::printf("\nCRC: %llu/%llu transmissions failed (%.1f%%); "
              "%llu block(s) unresolved at end of soak\n",
              static_cast<unsigned long long>(total.crc_fail),
              static_cast<unsigned long long>(total.pdus),
              total.crc_fail_fraction() * 100.0,
              static_cast<unsigned long long>(total.unresolved));
  std::printf("latency: p50 %.1f us, p99 %.1f us, worst %.1f us (worst cell) | "
              "soft-buffer peak %llu bits\n",
              static_cast<double>(total.p50_cycles) / cfg.clock_hz * 1e6,
              static_cast<double>(total.p99_cycles) / cfg.clock_hz * 1e6,
              static_cast<double>(total.worst_cycles) / cfg.clock_hz * 1e6,
              static_cast<unsigned long long>(total.harq.soft_buffer_peak_bits));
  std::printf("host: %u cell-TTIs in %.2f s wall clock (%.0f TTI/s)\n",
              cfg.cells * cfg.ttis, wall_s,
              wall_s > 0 ? cfg.cells * cfg.ttis / wall_s : 0.0);

  // Host-side fast-forward activity (in-process runs only; reports and JSON
  // stay byte-identical either way - this line is diagnostics).
  if (cfg.pool.fast_forward && result.ff.ttis > 0) {
    const mac::FarmResult::FfActivity& ff = result.ff;
    std::printf("fast-forward: %llu/%llu quiescent TTI(s) skipped, "
                "%llu/%llu batch(es) shrunk (%.0f%% of core-runs parked)\n",
                static_cast<unsigned long long>(ff.idle_ttis),
                static_cast<unsigned long long>(ff.ttis),
                static_cast<unsigned long long>(ff.shrunk_batches),
                static_cast<unsigned long long>(ff.full_batches +
                                                ff.shrunk_batches),
                ff.cores_full > 0
                    ? 100.0 *
                          static_cast<double>(ff.cores_full - ff.cores_run) /
                          static_cast<double>(ff.cores_full)
                    : 0.0);
  }

  if (cfg.fault.enabled) {
    std::printf("faults: %llu degraded slot(s), %llu hart fault(s), "
                "ECC %llu corrected / %llu detected / %llu silent, "
                "FAPI %llu dropped / %llu delayed, %llu HARQ timeout(s)\n",
                static_cast<unsigned long long>(total.degraded_slots),
                static_cast<unsigned long long>(total.hart_faults),
                static_cast<unsigned long long>(total.ecc_corrected),
                static_cast<unsigned long long>(total.ecc_detected),
                static_cast<unsigned long long>(total.ecc_silent),
                static_cast<unsigned long long>(total.dropped_ind),
                static_cast<unsigned long long>(total.delayed_ind),
                static_cast<unsigned long long>(total.harq.timeouts));
  }
  if (!result.failures.empty()) {
    std::printf("supervisor: %zu failed shard attempt(s) under policy %s\n",
                result.failures.size(), mac::farm_policy_name(cfg.policy));
    for (const mac::ShardFailure& f : result.failures) {
      std::printf("  shard %u attempt %u: %s%s\n", f.shard, f.attempt,
                  f.reason.c_str(), f.recovered ? " (recovered)" : " (LOST)");
      for (size_t i = 0; i < f.resume_ttis.size(); ++i) {
        if (f.resume_ttis[i] < 0)
          std::printf("    cell %u: recovery restarted clean\n", f.cells[i]);
        else
          std::printf("    cell %u: recovery resumed from snapshot TTI %lld\n",
                      f.cells[i], static_cast<long long>(f.resume_ttis[i]));
      }
    }
    const std::vector<u32> missing = result.missing_cells();
    if (!missing.empty()) {
      std::printf("  %zu cell(s) degraded to zero-filled reports\n",
                  missing.size());
    }
  }

  if (!opt.json_dir.empty()) {
    const std::string path =
        bench::BenchOptions::write_json_table(table, opt.json_dir, "farm_soak");
    if (path.empty()) {
      std::fprintf(stderr, "error: could not write JSON into '%s'\n",
                   opt.json_dir.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (!opt.csv_dir.empty()) table.write_csv(opt.csv_dir + "/farm_soak.csv");
  return 0;
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
