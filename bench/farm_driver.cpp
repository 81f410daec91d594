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
// `./farm_driver --help` lists every flag. Beyond the soak shape they cover
// fault injection and supervision (sim/fault.h + the mac/farm.h supervisor:
// recovery under --policy retry is byte-identical to a clean run - CI's
// fault-smoke step diffs the JSON) and the checkpoint / resume / bisect
// snapshot ladder (mac/farm.h: a --resume'd soak is byte-identical to an
// uninterrupted one - CI's kill-and-resume step pins it with cmp; --bisect
// binary-searches the snapshots for the first TTI where a predicate holds
// and replays only the final window with per-TTI tracing).
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "dse/space.h"
#include "mac/farm.h"

using namespace tsim;

namespace {

/// --bisect mode: O(log snapshots) restores + one replayed window instead of
/// a full re-run. Exit 0 when the predicate fires, 1 when it never does.
int run_bisect(const mac::FarmConfig& cfg, const std::string& bisect, u32 bisect_cell) {
  const mac::BisectPredicate pred = mac::parse_bisect_predicate(bisect);
  std::printf("bisecting cell %u for first %s (snapshots in %s)\n",
              bisect_cell, pred.describe().c_str(),
              cfg.checkpoint_dir.c_str());
  const mac::BisectResult res = mac::bisect_cell(cfg, bisect_cell, pred);
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
  mac::FarmConfig cfg;
  cfg.ttis = 100;
  cfg.ues_per_cell = 32;
  // Event-driven fast-forward (quiescent-TTI skip + batch shrink). Reports
  // are bit-identical either way - CI's fastforward-smoke pins that with cmp
  // - so the faster path is the default.
  cfg.pool.fast_forward = true;
  bool quick = false;
  bool full = false;
  std::string json_dir;
  std::string csv_dir;
  std::string bisect;  // predicate spec; empty = normal soak
  u32 bisect_cell = 0;
  // A DUT fault flag also arms the fault plan.
  const auto fault = [&cfg](double& rate) -> cli::Setter {
    return [&cfg, &rate](const char* s) {
      rate = cli::parse_double(s, false);
      cfg.fault.enabled = true;
    };
  };
  cli::parse(argc, argv, {
      {"--cells", "N", "gNB cells in the farm (default 4)", cli::positive(cfg.cells)},
      {"--ues", "N", "UEs per cell (default 32)", cli::positive(cfg.ues_per_cell)},
      {"--ttis", "N", "closed-loop TTIs per cell (default 100)", cli::positive(cfg.ttis)},
      {"--shards", "N", "forked worker processes (default 1)", cli::positive(cfg.shards)},
      {"--threads", "N", "host threads per cell's cluster pool (default 2)",
       cli::positive(cfg.pool.host_threads)},
      {"--seed", "S", "farm seed (default 0xFA21)", cli::non_negative(cfg.seed)},
      {"--quick", nullptr, "CI-sized carrier (2 MHz x 2 symbols)",
       cli::set_to(quick, true)},
      {"--full", nullptr, "paper-scale carrier (50 MHz x 14 symbols)",
       cli::set_to(full, true)},
      {"--no-harq", nullptr, "single-shot baseline (every CRC fail drops)",
       cli::set_to(cfg.harq.enabled, false)},
      {"--burst", nullptr, "on/off arrival bursts + diurnal modulation",
       [&cfg](const char*) {
         cfg.burst.enabled = true;
         cfg.burst.duty = 0.5;
         cfg.burst.mean_on_slots = 8.0;
         cfg.burst.arrival_prob = 0.9;
         cfg.burst.diurnal_period_ttis = 50.0;
         cfg.burst.diurnal_depth = 0.5;
       }},
      {"--fastforward", nullptr, "event-driven idle skip (default; same reports)",
       cli::set_to(cfg.pool.fast_forward, true)},
      {"--no-fastforward", nullptr, "cycle-by-cycle reference run",
       cli::set_to(cfg.pool.fast_forward, false)},
      {"--ppc", "N", "problems per core (default: pool default)",
       cli::positive(cfg.pool.problems_per_core)},
      {"--batch-cores", "N", "cores per batch (default: L1-fit maximum)",
       cli::positive(cfg.pool.batch_cores)},
      {"--cluster-cores", "N", "cores per emulated cluster, a multiple of 8 (default 16)",
       [&cfg](const char* s) {
         cfg.pool.cluster = dse::cluster_for_cores(cli::parse_positive_u32(s));
       }},
      {"--json", "[DIR]", "write DIR/farm_soak.json (default DIR: .)",
       cli::path(json_dir)},
      {"--csv", "DIR", "write DIR/farm_soak.csv", cli::path(csv_dir)},
      {"--policy", "P", "supervisor policy: fail_fast | retry | degrade (default retry)",
       [&cfg](const char* s) { cfg.policy = mac::parse_farm_policy(s); }},
      {"--attempts", "N", "forked attempts per shard under retry (default 2)",
       cli::positive(cfg.max_shard_attempts)},
      {"--shard-timeout", "SECS", "wall-clock bound per worker (0 = off)",
       cli::non_negative(cfg.shard_timeout_s)},
      {"--inject-shard-crash", "S", "shard S crashes mid-stream",
       cli::non_negative(cfg.host_fault.crash_shard)},
      {"--inject-shard-stall", "S", "shard S hangs (needs a timeout)",
       cli::non_negative(cfg.host_fault.stall_shard)},
      {"--inject-shard-garble", "S", "shard S emits truncated JSON",
       cli::non_negative(cfg.host_fault.garble_shard)},
      {"--fault-attempts", "N", "host faults fire while attempt <= N",
       cli::positive(cfg.host_fault.fault_attempts)},
      {"--fault-seed", "S", "fault stream seed (default 0xF417)",
       cli::non_negative(cfg.fault.seed)},
      {"--hart-trap-rate", "R", "P(transient hart trap | batch run)",
       fault(cfg.fault.hart_trap_rate)},
      {"--hart-hang-rate", "R", "P(stuck hart | batch run)",
       fault(cfg.fault.hart_hang_rate)},
      {"--l1-flip-rate", "R", "expected L1 bit upsets per batch run",
       fault(cfg.fault.l1_flip_rate)},
      {"--no-ecc", nullptr, "disable the SECDED model (silent upsets)",
       cli::set_to(cfg.fault.ecc, false)},
      {"--cluster-fail", "TTI", "kill one cluster per cell from this TTI",
       [&cfg](const char* s) {
         cfg.fault.cluster_fail_tti = cli::parse_unsigned<u32>(s);
         cfg.fault.enabled = true;
       }},
      {"--cluster-fail-cluster", "C", "which cluster dies (default 0)",
       cli::non_negative(cfg.fault.cluster_fail_id)},
      {"--drop-ind", "R", "P(SlotIndication lost | TTI)",
       fault(cfg.fault.drop_indication_rate)},
      {"--delay-ind", "R", "P(SlotIndication delayed | TTI)",
       fault(cfg.fault.delay_indication_rate)},
      {"--delay-slots", "N", "delivery delay of a delayed indication (default 2)",
       cli::positive(cfg.fault.delay_slots)},
      {"--harq-timeout", "N", "HARQ feedback timeout in slots (0 = off)",
       cli::non_negative(cfg.harq.feedback_timeout_slots)},
      {"--checkpoint-every", "N", "snapshot every cell every N TTIs",
       cli::positive(cfg.checkpoint_every)},
      {"--checkpoint-dir", "DIR", "where the per-cell snapshots live",
       cli::path(cfg.checkpoint_dir)},
      {"--resume", nullptr, "resume from the newest valid snapshots",
       cli::set_to(cfg.resume, true)},
      {"--bisect", "PRED", "first TTI where PRED holds (miss | degraded | bler=X)",
       [&bisect](const char* s) {
         mac::parse_bisect_predicate(s);  // fail fast on a bad spec
         bisect = s;
       }},
      {"--bisect-cell", "C", "cell to bisect (default 0)",
       cli::non_negative(bisect_cell)},
  });
  check(!(quick && full), "--quick and --full are mutually exclusive");
  if (quick) {
    cfg.carrier.bandwidth_hz = 2e6;  // ~65 subcarriers
    cfg.carrier.symbols_per_slot = 2;
  } else if (full) {
    cfg.carrier = phy::CarrierConfig::paper_50mhz();
  } else {
    cfg.carrier.bandwidth_hz = 10e6;  // ~327 subcarriers
    cfg.carrier.symbols_per_slot = 4;
  }
  if (!bisect.empty()) return run_bisect(cfg, bisect, bisect_cell);

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

  if (!json_dir.empty()) {
    const std::string path =
        bench::BenchOptions::write_json_table(table, json_dir, "farm_soak");
    if (path.empty()) {
      std::fprintf(stderr, "error: could not write JSON into '%s'\n",
                   json_dir.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (!csv_dir.empty()) table.write_csv(csv_dir + "/farm_soak.csv");
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
