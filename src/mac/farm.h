// Multi-cell gNB farm: N independent mac::Cell closed-loop simulations,
// shard-parallel across host worker processes under a supervising runner.
//
// Scaling model: cells never interact (each has its own UE population,
// HARQ state and cluster pool), so the farm is embarrassingly parallel at
// cell granularity. `shards` partitions the cells round-robin across forked
// worker processes; each worker simulates its cells to completion, encodes
// the integer-only CellReports as JSON rows (the repo's shared
// sim::write_json_rows format), streams them through a pipe, and exits.
//
// Supervisor contract (run_farm)
// ------------------------------
// The parent is a supervisor, not a serial gatherer:
//
//  - All worker pipes are drained CONCURRENTLY via poll(), so a shard that
//    produces more than one pipe buffer (64 KiB on Linux) can never
//    deadlock against a parent blocked on a sibling's pipe, and a slow
//    shard never delays reading a fast one.
//  - read()/waitpid()/poll() are EINTR-safe (retried), so a signal landing
//    mid-gather cannot truncate a shard's JSON.
//  - FarmConfig::shard_timeout_s puts a wall-clock bound on each worker;
//    an overdue worker is SIGKILLed and treated as failed. 0 disables the
//    timeout (a stalled worker then blocks forever - only safe when host
//    faults are impossible).
//  - A shard fails when its worker is killed/non-zero, its JSON does not
//    parse, or its cells are incomplete. What happens next is
//    FarmConfig::policy:
//      kFailFast  kill and reap every other worker, then throw SimError.
//      kRetry     re-run the shard (fresh fork) up to max_shard_attempts
//                 total attempts; if the last attempt still fails, run its
//                 cells inline in the supervisor. Because every cell is a
//                 deterministic function of (seed, cell id) alone, the
//                 recovered FarmResult is BYTE-IDENTICAL to a fault-free
//                 run at the same seed - the property tests and the CI
//                 fault-smoke step pin.
//      kDegrade   give up on the shard's cells: their reports stay
//                 zero-filled (cell id set) and the failure is recorded.
//    Every failed attempt - recovered or not - is appended to
//    FarmResult::failures with the shard, attempt, reason and cell list,
//    so callers can tell a clean run from a recovered one.
//
// Checkpoint-aware retry ladder
// -----------------------------
// With FarmConfig::checkpoint_every/checkpoint_dir set, workers write an
// atomic per-cell snapshot (sim/snapshot.h; temp file + fsync + rename)
// every checkpoint_every TTIs, and every RECOVERY resumes from snapshots
// instead of TTI 0. The ladder, per cell, newest first:
//
//   newest snapshot -> next-older snapshot -> ... -> clean start at TTI 0
//
// A rung is skipped when its file is truncated, bit-flipped, from a
// different configuration, or unreadable (all surfaced as SnapshotError by
// the loader, never a silent wrong restore). Both recovery paths climb the
// ladder: a kRetry re-fork (attempt > 1 workers resume) and the inline
// fallback in the supervisor. ShardFailure::resume_ttis records the
// snapshot TTI each owned cell's next recovery resumed from (-1 = clean),
// so FarmResult::failures tells bounded re-work from full re-execution.
// Because a restored cell's continuation is bit-identical to the
// uninterrupted run (the snapshot contract, tests/snapshot_test.cpp), the
// recovered FarmResult stays BYTE-IDENTICAL to a fault-free run - the same
// identity PR 8 pinned for full re-execution, now with bounded re-work.
// FarmConfig::resume extends the ladder to first attempts: a re-launched
// soak picks up every cell from its newest valid snapshot (the CI
// kill-and-resume smoke step SIGKILLs a soak mid-run and pins cmp-equality
// of the resumed JSON against an uninterrupted run).
//
// Fault injection: FarmConfig::fault (sim/fault.h) forwards a deterministic
// DUT-level fault plan to every cell; FarmConfig::host_fault crashes,
// stalls or garbles a chosen shard's worker process to exercise the
// supervisor itself. Host faults live entirely in the worker harness and
// key on (shard, attempt), so a retried shard runs clean and reproduces
// its reports exactly.
//
// Determinism: a cell's entire simulation is keyed by
// (FarmConfig::seed, cell id, tti) via Rng::keyed streams - nothing depends
// on which shard (or host thread, or attempt) runs it, every report field
// is an exact integer, and the pipe carries decimal integers - so farm
// aggregates are bit-identical for every shard count, host thread count
// and recovery path. That is the property the soak tests pin
// (tests/mac_test.cpp, tests/robustness_test.cpp) and the CI farm-smoke
// and fault-smoke steps validate.
#pragma once

#include <string>
#include <vector>

#include "mac/cell.h"

namespace tsim::mac {

/// What the supervisor does with a shard that crashed, stalled past the
/// timeout, or returned unusable output (see the header comment).
enum class FarmPolicy : u8 {
  kFailFast = 0,  // kill everything and throw
  kRetry,         // re-fork up to max_shard_attempts, then inline fallback
  kDegrade,       // record the failure, leave the cells zero-filled
};

const char* farm_policy_name(FarmPolicy p);
/// Parses "fail_fast" / "retry" / "degrade"; throws SimError otherwise.
FarmPolicy parse_farm_policy(const std::string& name);

struct FarmConfig {
  u32 cells = 4;
  u32 shards = 1;        // worker processes (clamped to the cell count)
  u64 seed = 0xFA21;     // farm seed; cell c uses derive_seed(seed, cell c)
  u32 ttis = 32;         // closed-loop TTIs per cell
  u32 ues_per_cell = 64;
  u32 sc_per_pdu = 4;
  phy::CarrierConfig carrier;
  std::vector<ran::UeGroup> groups;  // defaulted in validate-time helper
  HarqConfig harq;
  BurstConfig burst;
  ran::ClusterPoolConfig pool;
  double clock_hz = 1e9;

  // ---- supervisor knobs ----
  FarmPolicy policy = FarmPolicy::kRetry;
  u32 max_shard_attempts = 2;   // forked attempts per shard before fallback
  double shard_timeout_s = 0.0; // wall-clock bound per worker; 0 = none
  /// DUT-level fault plan, forwarded to every cell (re-seeded per cell).
  sim::FaultConfig fault;
  /// Host-level worker faults, handled by the worker harness only.
  sim::HostFaultConfig host_fault;
  /// Test hook: pad every JSON row with this many filler bytes (an ignored
  /// "pad" column) to drive per-shard report volume past the pipe buffer.
  u32 pad_row_bytes = 0;

  // ---- checkpoint / resume (see "Checkpoint-aware retry ladder" above) ----
  /// Write an atomic per-cell snapshot every this many TTIs (0 = off).
  /// Requires checkpoint_dir. No snapshot is written at the final TTI.
  u32 checkpoint_every = 0;
  /// Directory the snapshots live in (created on first write). Setting it
  /// without checkpoint_every arms resume-from-existing-snapshots only.
  std::string checkpoint_dir;
  /// Resume FIRST attempts from the newest valid snapshot in checkpoint_dir
  /// (recoveries always resume when a checkpoint_dir is set). Requires
  /// checkpoint_dir.
  bool resume = false;

  void validate() const;
  /// The per-cell config of cell `cell` (shared parameters + cell identity).
  CellConfig cell_config(u32 cell) const;
};

/// One failed shard attempt, as observed by the supervisor.
struct ShardFailure {
  u32 shard = 0;
  u32 attempt = 0;          // 1-based attempt number that failed
  std::string reason;       // "status 9", "timeout", "malformed JSON", ...
  std::vector<u32> cells;   // cells the shard owned
  bool recovered = false;   // true once a later attempt/fallback delivered
  /// Snapshot TTI each owned cell's recovery resumed from, parallel to
  /// `cells` (-1 = clean start at TTI 0). Empty when no recovery was
  /// attempted (kFailFast/kDegrade) or no checkpoint_dir is set.
  std::vector<i64> resume_ttis;
};

struct FarmResult {
  std::vector<CellReport> cells;  // indexed by cell id

  /// Host-side fast-forward activity: how much work the event-driven
  /// fast-forward skipped. Diagnostics only - never part of CellReport or
  /// any JSON surface (the bit-exactness contract compares those). Only
  /// populated by in-process runs (shards <= 1); sharded runs report zeros,
  /// since worker processes hand back CellReports alone.
  struct FfActivity {
    u64 idle_ttis = 0;       // quiescent TTIs skipped wholesale
    u64 ttis = 0;            // cell-TTIs run in-process
    u64 full_batches = 0;    // batches executed at full layout width
    u64 shrunk_batches = 0;  // batches executed on a shrunk variant
    u64 cores_full = 0;      // core-runs a full-width run would execute
    u64 cores_run = 0;       // core-runs actually executed
  };
  FfActivity ff;

  /// Structured failure report: one entry per failed shard attempt, in
  /// observation order. Empty on a clean run. Under kRetry every entry is
  /// recovered; under kDegrade unrecovered entries mark zero-filled cells.
  std::vector<ShardFailure> failures;

  /// Cells with no report (kDegrade only; sorted). Empty otherwise.
  std::vector<u32> missing_cells() const;

  /// Every cell's columns merged by their TSIM_CELL_REPORT_COLUMNS rule
  /// (mac/cell.h): counters sum, timing takes the worst cell, and the cell
  /// id stays 0.
  CellReport total() const;
};

/// Runs every cell of the farm under the supervisor described in the
/// header comment. shards == 1 with no host faults runs inline on this
/// process; otherwise one worker per shard is forked and supervised.
/// Throws SimError when the farm cannot produce a result under the policy.
FarmResult run_farm(const FarmConfig& cfg);

/// Runs one cell inline (the worker path; also handy for tests), honoring
/// cfg.checkpoint_every/checkpoint_dir and resuming per cfg.resume.
CellReport run_cell(const FarmConfig& cfg, u32 cell);
/// Worker/recovery variant: when `allow_resume`, climbs the snapshot ladder
/// (newest valid -> older -> clean) before stepping, and reports the TTI it
/// resumed from in *resumed_from (-1 = clean) when non-null. When `ff` is
/// non-null, the cell's host-side fast-forward activity is accumulated into
/// it (the counters are additive across cells).
CellReport run_cell(const FarmConfig& cfg, u32 cell, bool allow_resume,
                    i64* resumed_from, FarmResult::FfActivity* ff = nullptr);

// ---- per-cell snapshot files (sim/snapshot.h container) ----

/// Path of cell `cell`'s snapshot at TTI boundary `tti` under `dir`
/// ("<dir>/cellNNNN_ttiNNNNNNNN.snap"; zero-padded so lexicographic order
/// is numeric order).
std::string cell_snapshot_path(const std::string& dir, u32 cell, u64 tti);
/// Atomically writes `cell`'s state at its current TTI boundary. Creates
/// `dir` if missing.
void save_cell_snapshot(const Cell& cell, const std::string& dir);
/// Restores `cell` (freshly constructed, same config) from `path` and
/// returns the TTI boundary the snapshot was captured at. Throws
/// sim::SnapshotError on corruption, truncation, or a config mismatch.
u64 load_cell_snapshot(Cell& cell, const std::string& path);
/// Snapshot TTIs present on disk for `cell` under `dir`, ascending.
/// Presence only - validity is checked at load time.
std::vector<u64> list_cell_snapshots(const std::string& dir, u32 cell);

// ---- failure bisection ----

/// The failing-slot predicate --bisect searches for.
struct BisectPredicate {
  enum class Kind : u8 {
    kDeadlineMiss = 0,  // a slot over the TTI deadline
    kDegradedSlot,      // a slot run degraded (dead cluster / failed batch)
    kResidualBler,      // cumulative residual BLER >= threshold
  };
  Kind kind = Kind::kDeadlineMiss;
  double threshold = 0.0;  // kResidualBler only

  std::string describe() const;
};

/// Parses "miss" / "degraded" / "bler=X"; throws SimError otherwise.
BisectPredicate parse_bisect_predicate(const std::string& spec);

struct BisectResult {
  /// First TTI at which the predicate holds, -1 when it never fires.
  i64 first_bad_tti = -1;
  u64 snapshots_loaded = 0;  // snapshot restores the binary search consumed
  u64 ttis_replayed = 0;     // TTIs re-simulated (final window only)
  i64 window_start = -1;     // TTI boundary the final replay started from
  /// Per-TTI trace lines of the replayed window (cycles, deadline margin,
  /// degradation, cumulative BLER), ending at the offending TTI.
  std::vector<std::string> window_trace;
};

/// Binary-searches cell `cell`'s snapshots under cfg.checkpoint_dir for the
/// first TTI where `pred` holds, then replays ONLY the final window (at most
/// checkpoint_every TTIs) with per-TTI tracing: O(log snapshots) restores
/// plus one window of re-simulation instead of a full re-run. When the
/// directory holds no snapshots for the cell and cfg.checkpoint_every > 0,
/// the cell is first run once to populate them. The predicate is evaluated
/// on snapshot-held cumulative state (per-slot result history, HARQ
/// counters), so probing a boundary costs one restore, not a re-simulation.
BisectResult bisect_cell(const FarmConfig& cfg, u32 cell,
                         const BisectPredicate& pred);

/// The JSON row schema of one CellReport (shared by the pipe wire format
/// and the farm driver's trajectory output): integer fields only, one per
/// entry of TSIM_CELL_REPORT_COLUMNS (mac/cell.h), in its order and under
/// its names. The header, the row writer and the parser are generated from
/// that table, so a new column is one table entry plus its producer in
/// Cell::report().
std::vector<std::string> cell_report_header();
std::vector<std::string> cell_report_row(const CellReport& rep);
/// Rebuilds a report from a parsed JSON row. Throws SimError on a missing
/// field or on a value that is not plain decimal digits fitting its member
/// (no sign, blank or out-of-range value is read); unknown keys are ignored
/// (forward compatibility and the pad_row_bytes hook).
CellReport cell_report_from_row(
    const std::vector<std::pair<std::string, std::string>>& row);

}  // namespace tsim::mac
