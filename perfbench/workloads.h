// The four workloads of the repository benchmark (README.md says why each
// was chosen). Each workload is repeated as deterministic *episodes*: fresh
// objects, built and driven only through the layers' public calls for a
// fixed number of TTIs (or one design sweep) in a closed loop - the next
// TTI starts when the previous call returns. The same seed gives the same
// episode, so every episode's outputs can be checked against a committed
// reference, or against the run's first episode on a held-out seed.
//
// With a tracer, an episode records spans around those same calls; without
// one it makes exactly the calls farm_driver and dse_driver make
// (Cell::step, run_sweep).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dse/sweep.h"
#include "mac/farm.h"
#include "trace.h"

namespace perfbench {

enum class Workload : u8 { kFarmBusy, kFarmIdle, kSlotPaper, kDseSweep };

const char* workload_name(Workload w);
/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
inline constexpr Workload kAllWorkloads[] = {Workload::kFarmBusy, Workload::kFarmIdle,
                                             Workload::kSlotPaper, Workload::kDseSweep};

// ---- configurations -------------------------------------------------------

/// 4 cells x 16 UEs, quick carrier, mixed geometries, HARQ, full buffer,
/// fast-forward on, 2 x 16-core clusters per cell on 2 host threads.
tsim::mac::FarmConfig farm_busy_config(u64 seed);
/// 1 cell x 4 UEs with diurnal on/off bursts on one 64-core cluster
/// (1 problem/core, 64-core batches), checkpointed every 64 TTIs into
/// `snapshot_dir`.
tsim::mac::FarmConfig farm_idle_config(u64 seed, const std::string& snapshot_dir);
/// The paper's 50 MHz x 14-symbol carrier: eMBB 4x4 64-QAM Rayleigh and
/// 2x4 QPSK AWGN control at 3:1 (as in ran_slot_sim).
tsim::ran::TrafficConfig slot_paper_traffic(u64 seed);
/// 2 x 1024-core TeraPool clusters, 2 host threads, 16b complex dot
/// product, 4 problems/core, locality policy.
tsim::ran::ClusterPoolConfig slot_paper_pool();
inline constexpr u32 kSlotPaperTtis = 4;  // TTIs per slot_paper episode
/// dse_driver's medium sweep: clusters {1,2,4} x cores {16,32,64} x 4
/// precisions x ppc {1,4}, locality.
tsim::dse::DesignSpace dse_space();
/// 10 MHz x 4 symbols, 1 TTI per point, warm start, golden BER, 1 thread.
tsim::dse::SweepConfig dse_config(u64 seed);

// ---- episodes -------------------------------------------------------------

/// A checked output: a name and the digest of its deterministic fields.
using Items = std::vector<std::pair<std::string, u64>>;

struct Episode {
  Items items;
  u64 self_checks = 0;  // in-episode equalities (restored snapshot)
  u64 self_failed = 0;

  // Host time (nondeterministic).
  double setup_s = 0.0;       // constructing the episode's objects
  std::vector<double> tti_s;  // latency samples: Cell::step / slot / point
  /// Closed-loop host time per unit of work, in a fixed order; the units sum
  /// to the episode's timed phase (a farm step with its snapshot save, a
  /// slot, a design point, and the sweep's time outside its points).
  std::vector<double> loop_s;

  // Exact outcome.
  u64 ttis = 0;         // cell-TTIs, slots, or points x TTIs
  u64 idle_ttis = 0;    // quiescent TTIs skipped by Cell::step
  u64 batches = 0;      // SlotResult::cluster_batches, summed
  u64 reloads = 0;      // SlotResult::total_reloads, summed
  u64 instructions = 0; // SlotResult::total_instructions, summed
  u64 worst_cycles = 0; // worst modeled slot (or point) latency
  tsim::ran::SlotScheduler::FastForwardStats ff;
  std::vector<tsim::mac::CellReport> reports;   // farms: per cell, at the end
  std::vector<tsim::dse::PointMetrics> points;  // dse_sweep
  double ber_gap = 0.0;         // dse_sweep: max |DUT BER - golden BER|
  u64 warm_hits = 0;            // dse_sweep: points reusing a sibling's state
  u32 calibrated_geometries = 0;  // slot_paper
  std::vector<double> snapshot_kb;
};

/// Steps every cell for cfg.ttis TTIs. Untraced: Cell::step. Traced: the
/// build_request / run_slot / apply_indication split, plus an equal
/// build_workload call outside the TTI span to time traffic generation.
Episode farm_busy_episode(const tsim::mac::FarmConfig& cfg, Tracer* tracer);
/// Steps cell 0 with Cell::step, saving a snapshot every
/// cfg.checkpoint_every TTIs; at the end restores the last snapshot into a
/// fresh cell, compares its report and runs it to the end.
Episode farm_idle_episode(const tsim::mac::FarmConfig& cfg, Tracer* tracer);
/// TrafficGenerator::slot then SlotScheduler::run_slot for `ttis` TTIs.
Episode slot_paper_episode(const tsim::ran::TrafficConfig& traffic,
                           const tsim::ran::ClusterPoolConfig& pool, u32 ttis,
                           Tracer* tracer);
/// One sweep. Untraced: dse::run_sweep. Traced: a replay of run_sweep that
/// passes WarmState along the same way. Then dse::pareto_front.
Episode dse_episode(const tsim::dse::DesignSpace& space,
                    const tsim::dse::SweepConfig& cfg, Tracer* tracer);

/// The workload's episode at `seed` (snapshots go under `scratch_dir`).
Episode run_episode(Workload w, u64 seed, const std::string& scratch_dir,
                    Tracer* tracer);

// ---- ISS probe ------------------------------------------------------------

/// Host threads the workload's pool runs batches on at once.
u32 pool_threads(Workload w);

struct IssProbe {
  u32 harts = 0;
  double mips = 0.0;  // simulated MIPS of Machine::run (0 if not timed)
  double lockstep_frac = 0.0;
  double avg_width = 0.0;
};

/// Repeats Machine::run on one staged batch of group 0's layout (from
/// SlotScheduler::layout_for_group) for at least `seconds` (one run when 0).
IssProbe iss_probe(Workload w, u64 seed, double seconds);

}  // namespace perfbench
