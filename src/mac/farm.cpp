#include "mac/farm.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "common/error.h"
#include "sim/report.h"
#include "sim/snapshot.h"

#if defined(__unix__) || defined(__APPLE__)
#define TSIM_FARM_HAS_FORK 1
#include <cerrno>
#include <chrono>
#include <csignal>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#ifndef TSIM_FARM_HAS_FORK
#define TSIM_FARM_HAS_FORK 0
#endif

namespace tsim::mac {

const char* farm_policy_name(FarmPolicy p) {
  switch (p) {
    case FarmPolicy::kFailFast: return "fail_fast";
    case FarmPolicy::kRetry: return "retry";
    case FarmPolicy::kDegrade: return "degrade";
  }
  return "?";
}

FarmPolicy parse_farm_policy(const std::string& name) {
  if (name == "fail_fast") return FarmPolicy::kFailFast;
  if (name == "retry") return FarmPolicy::kRetry;
  if (name == "degrade") return FarmPolicy::kDegrade;
  throw SimError("unknown farm policy '" + name +
                 "' (expected fail_fast, retry or degrade)");
}

void FarmConfig::validate() const {
  check(cells >= 1, "FarmConfig: need at least one cell");
  check(shards >= 1, "FarmConfig: need at least one shard");
  check(ttis >= 1, "FarmConfig: need at least one TTI");
  check(max_shard_attempts >= 1, "FarmConfig: need at least one shard attempt");
  check(shard_timeout_s >= 0.0, "FarmConfig: negative shard timeout");
  // A stalled worker writes nothing and never exits: only the wall-clock
  // timeout can resolve it, so injecting a stall requires one.
  check(host_fault.stall_shard == sim::HostFaultConfig::kNone ||
            shard_timeout_s > 0.0,
        "FarmConfig: stall injection needs shard_timeout_s > 0");
  check(checkpoint_every == 0 || !checkpoint_dir.empty(),
        "FarmConfig: checkpoint_every needs a checkpoint_dir");
  check(!resume || !checkpoint_dir.empty(),
        "FarmConfig: resume needs a checkpoint_dir");
  // Everything else is validated per cell when the Cell is built.
  cell_config(0).validate();
}

CellConfig FarmConfig::cell_config(u32 cell) const {
  CellConfig c;
  c.cell = cell;
  c.farm_seed = seed;
  c.num_ues = ues_per_cell;
  c.sc_per_pdu = sc_per_pdu;
  c.carrier = carrier;
  c.groups = groups.empty() ? ran::mixed_geometry_groups() : groups;
  c.harq = harq;
  c.burst = burst;
  c.pool = pool;
  c.clock_hz = clock_hz;
  c.fault = fault;
  return c;
}

std::vector<u32> FarmResult::missing_cells() const {
  std::vector<u32> out;
  for (const ShardFailure& f : failures) {
    if (f.recovered) continue;
    out.insert(out.end(), f.cells.begin(), f.cells.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

template <ColumnMerge M, class T>
void merge_column(T& total, [[maybe_unused]] T cell) {
  if constexpr (M == ColumnMerge::kSum) total += cell;
  if constexpr (M == ColumnMerge::kMax) total = std::max(total, cell);
}

}  // namespace

CellReport FarmResult::total() const {
  CellReport t;
  for (const CellReport& c : cells) {
#define TSIM_MERGE(type, name, merge) merge_column<ColumnMerge::merge>(t.name, c.name);
#define TSIM_MERGE_SKIP(wire, member)
    TSIM_CELL_REPORT_COLUMNS(TSIM_MERGE, TSIM_MERGE_SKIP)
#undef TSIM_MERGE
#undef TSIM_MERGE_SKIP
    t.harq += c.harq;
  }
  return t;
}

// ---- per-cell snapshot files ----

namespace {

/// Payload discriminator of a farm per-cell snapshot file ("CELL").
constexpr u32 kCellSnapshotKind = 0x4C4C4543;

/// Climbs the snapshot ladder for cell `cell`: newest valid snapshot first,
/// older ones on corruption, clean construction when none loads. Sets
/// *resumed_from to the snapshot TTI (-1 = clean start).
std::unique_ptr<Cell> make_resumed_cell(const FarmConfig& cfg, u32 cell,
                                        i64* resumed_from) {
  *resumed_from = -1;
  auto c = std::make_unique<Cell>(cfg.cell_config(cell));
  if (cfg.checkpoint_dir.empty()) return c;
  const std::vector<u64> ttis = list_cell_snapshots(cfg.checkpoint_dir, cell);
  for (size_t i = ttis.size(); i-- > 0;) {
    if (ttis[i] > cfg.ttis) continue;  // beyond this run's horizon
    try {
      load_cell_snapshot(*c,
                         cell_snapshot_path(cfg.checkpoint_dir, cell, ttis[i]));
      *resumed_from = static_cast<i64>(ttis[i]);
      return c;
    } catch (const sim::SnapshotError&) {
      // A failed restore may have partially mutated the cell: rebuild it
      // fresh before trying the next-older rung.
      c = std::make_unique<Cell>(cfg.cell_config(cell));
    }
  }
  return c;
}

}  // namespace

std::string cell_snapshot_path(const std::string& dir, u32 cell, u64 tti) {
  return dir + "/" +
         sim::strf("cell%04u_tti%08llu.snap", cell,
                   static_cast<unsigned long long>(tti));
}

void save_cell_snapshot(const Cell& cell, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // write reports real failures
  sim::SnapshotWriter w;
  w.write_u32(cell.config().cell);
  w.write_u64(cell.ttis_run());
  cell.save_state(w);
  sim::write_snapshot_file(
      cell_snapshot_path(dir, cell.config().cell, cell.ttis_run()),
      kCellSnapshotKind, w.payload());
}

u64 load_cell_snapshot(Cell& cell, const std::string& path) {
  sim::SnapshotReader r(sim::read_snapshot_file(path, kCellSnapshotKind), path);
  const u32 id = r.read_u32();
  if (id != cell.config().cell) r.fail("snapshot belongs to a different cell");
  const u64 tti = r.read_u64();
  cell.restore_state(r);
  r.expect_end();
  if (tti != cell.ttis_run())
    r.fail("snapshot TTI header disagrees with the restored state");
  return tti;
}

std::vector<u64> list_cell_snapshots(const std::string& dir, u32 cell) {
  std::vector<u64> ttis;
  const std::string prefix = sim::strf("cell%04u_tti", cell);
  const std::string suffix = ".snap";
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    char* parse_end = nullptr;
    const unsigned long long tti = std::strtoull(digits.c_str(), &parse_end, 10);
    if (parse_end != digits.c_str() && *parse_end == '\0')
      ttis.push_back(static_cast<u64>(tti));
  }
  std::sort(ttis.begin(), ttis.end());
  return ttis;
}

CellReport run_cell(const FarmConfig& cfg, u32 cell, bool allow_resume,
                    i64* resumed_from, FarmResult::FfActivity* ff) {
  std::unique_ptr<Cell> c;
  i64 from = -1;
  if (allow_resume && !cfg.checkpoint_dir.empty())
    c = make_resumed_cell(cfg, cell, &from);
  else
    c = std::make_unique<Cell>(cfg.cell_config(cell));
  if (resumed_from != nullptr) *resumed_from = from;
  const bool ckpt = cfg.checkpoint_every > 0 && !cfg.checkpoint_dir.empty();
  for (u32 t = static_cast<u32>(c->ttis_run()); t < cfg.ttis; ++t) {
    c->step(t);
    // Snapshot at interval boundaries; the final TTI is never snapshotted
    // (a finished run has nothing left to resume).
    if (ckpt && (t + 1) % cfg.checkpoint_every == 0 && t + 1 < cfg.ttis)
      save_cell_snapshot(*c, cfg.checkpoint_dir);
  }
  if (ff != nullptr) {
    const ran::SlotScheduler::FastForwardStats s = c->ff_batch_stats();
    ff->idle_ttis += c->ff_idle_ttis();
    ff->ttis += c->ttis_run();
    ff->full_batches += s.full_batches;
    ff->shrunk_batches += s.shrunk_batches;
    ff->cores_full += s.cores_full;
    ff->cores_run += s.cores_run;
  }
  return c->report();
}

CellReport run_cell(const FarmConfig& cfg, u32 cell) {
  return run_cell(cfg, cell, cfg.resume, nullptr);
}

// ---- failure bisection ----

std::string BisectPredicate::describe() const {
  switch (kind) {
    case Kind::kDeadlineMiss: return "deadline miss";
    case Kind::kDegradedSlot: return "degraded slot";
    case Kind::kResidualBler:
      return sim::strf("residual BLER >= %.4g", threshold);
  }
  return "?";
}

BisectPredicate parse_bisect_predicate(const std::string& spec) {
  BisectPredicate p;
  if (spec == "miss") {
    p.kind = BisectPredicate::Kind::kDeadlineMiss;
    return p;
  }
  if (spec == "degraded") {
    p.kind = BisectPredicate::Kind::kDegradedSlot;
    return p;
  }
  if (spec.rfind("bler=", 0) == 0) {
    const char* num = spec.c_str() + 5;
    char* end = nullptr;
    const double v = std::strtod(num, &end);
    check(end != num && *end == '\0' && v >= 0.0 && v <= 1.0,
          "bisect predicate: BLER threshold must be a number in [0, 1] in '" +
              spec + "'");
    p.kind = BisectPredicate::Kind::kResidualBler;
    p.threshold = v;
    return p;
  }
  throw SimError("unknown bisect predicate '" + spec +
                 "' (expected miss, degraded or bler=X)");
}

namespace {

/// Whether one already-run slot satisfies a per-slot predicate.
bool slot_is_bad(const BisectPredicate& p, const Cell& c,
                 const ran::SlotResult& r) {
  switch (p.kind) {
    case BisectPredicate::Kind::kDeadlineMiss:
      return !ran::slot_timing(r, c.config().carrier, c.config().clock_hz)
                  .meets_deadline();
    case BisectPredicate::Kind::kDegradedSlot:
      return r.degraded;
    case BisectPredicate::Kind::kResidualBler:
      return c.report().residual_bler() >= p.threshold;
  }
  return false;
}

/// Whether the predicate has fired anywhere in the cell's history so far -
/// evaluable from snapshot-held state alone (no re-simulation). For BLER the
/// check is the cumulative ratio at this boundary.
bool bad_by_boundary(const BisectPredicate& p, const Cell& c) {
  if (p.kind == BisectPredicate::Kind::kResidualBler)
    return c.report().residual_bler() >= p.threshold;
  for (const ran::SlotResult& r : c.slot_results())
    if (slot_is_bad(p, c, r)) return true;
  return false;
}

std::string bisect_trace_line(const Cell& c, u64 tti) {
  const ran::SlotResult& r = c.slot_results().back();
  const ran::SlotTiming t =
      ran::slot_timing(r, c.config().carrier, c.config().clock_hz);
  return sim::strf(
      "tti %llu: slot_cycles=%llu latency_us=%.1f deadline_us=%.1f miss=%d "
      "degraded=%d failed_batches=%llu hart_faults=%llu bler=%.4g",
      static_cast<unsigned long long>(tti),
      static_cast<unsigned long long>(r.slot_cycles),
      t.latency_seconds() * 1e6, t.tti_seconds * 1e6,
      t.meets_deadline() ? 0 : 1, r.degraded ? 1 : 0,
      static_cast<unsigned long long>(r.failed_batches),
      static_cast<unsigned long long>(r.hart_faults),
      c.report().residual_bler());
}

}  // namespace

BisectResult bisect_cell(const FarmConfig& cfg, u32 cell,
                         const BisectPredicate& pred) {
  cfg.validate();
  check(cell < cfg.cells, "bisect_cell: cell id out of range");
  check(!cfg.checkpoint_dir.empty(), "bisect_cell: needs a checkpoint_dir");

  const auto usable_snapshots = [&] {
    std::vector<u64> ttis = list_cell_snapshots(cfg.checkpoint_dir, cell);
    std::erase_if(ttis, [&](u64 t) { return t == 0 || t >= cfg.ttis; });
    return ttis;
  };
  std::vector<u64> snaps = usable_snapshots();
  if (snaps.empty() && cfg.checkpoint_every > 0) {
    // No snapshots on disk yet: one full run populates them (this is the
    // only full-length simulation bisection ever pays).
    run_cell(cfg, cell, /*allow_resume=*/false, nullptr);
    snaps = usable_snapshots();
  }

  BisectResult res;
  // Boundary list the binary search probes: TTI 0 (clean construction) plus
  // every snapshot. bad_by_boundary is evaluated on restored state only.
  std::vector<u64> bounds;
  bounds.push_back(0);
  bounds.insert(bounds.end(), snaps.begin(), snaps.end());

  const auto cell_at = [&](u64 boundary) {
    auto c = std::make_unique<Cell>(cfg.cell_config(cell));
    if (boundary > 0) {
      load_cell_snapshot(
          *c, cell_snapshot_path(cfg.checkpoint_dir, cell, boundary));
      ++res.snapshots_loaded;
    }
    return c;
  };

  // Binary search for the first bad boundary. `bad` == bounds.size() means
  // no probed boundary is bad (the failure, if any, is past the last
  // snapshot). The predicate is treated as monotone once it fires - exact
  // for miss/degraded (cumulative-any), conventional for the BLER ratio.
  size_t good = 0;
  size_t bad = bounds.size();
  if (bad_by_boundary(pred, *cell_at(bounds[0]))) bad = 0;
  while (bad - good > 1 && bad != 0) {
    const size_t mid = good + (bad - good) / 2;
    if (bad_by_boundary(pred, *cell_at(bounds[mid])))
      bad = mid;
    else
      good = mid;
  }
  if (bad == 0) {
    // Degenerate: the predicate holds on an empty history (bler=0).
    res.first_bad_tti = 0;
    res.window_start = 0;
    return res;
  }

  // Replay ONLY the final window, tracing per TTI until the predicate first
  // fires. The window is bounded by one checkpoint interval (or the tail of
  // the run when no boundary was bad).
  const u64 start = bounds[good];
  const u64 stop = bad < bounds.size() ? bounds[bad] : cfg.ttis;
  auto c = cell_at(start);
  res.window_start = static_cast<i64>(start);
  for (u64 t = start; t < stop; ++t) {
    c->step(t);
    ++res.ttis_replayed;
    res.window_trace.push_back(bisect_trace_line(*c, t));
    const bool fired = pred.kind == BisectPredicate::Kind::kResidualBler
                           ? c->report().residual_bler() >= pred.threshold
                           : slot_is_bad(pred, *c, c->slot_results().back());
    if (fired) {
      res.first_bad_tti = static_cast<i64>(t);
      break;
    }
  }
  return res;
}

std::vector<std::string> cell_report_header() {
#define TSIM_NAME(type, name, merge) #name,
#define TSIM_NAME_HARQ(wire, member) #wire,
  return {TSIM_CELL_REPORT_COLUMNS(TSIM_NAME, TSIM_NAME_HARQ)};
#undef TSIM_NAME
#undef TSIM_NAME_HARQ
}

std::vector<std::string> cell_report_row(const CellReport& rep) {
  const auto u = [](u64 v) {
    return sim::strf("%llu", static_cast<unsigned long long>(v));
  };
#define TSIM_VALUE(type, name, merge) u(rep.name),
#define TSIM_VALUE_HARQ(wire, member) u(rep.harq.member),
  return {TSIM_CELL_REPORT_COLUMNS(TSIM_VALUE, TSIM_VALUE_HARQ)};
#undef TSIM_VALUE
#undef TSIM_VALUE_HARQ
}

namespace {

/// Reads column `key` of a wire row into `out`. The row came through a
/// worker pipe, so only plain decimal digits whose value fits the member's
/// type are accepted: a sign, a blank, or a value out of range throws.
template <class T>
void read_column(const std::vector<std::pair<std::string, std::string>>& row,
                 const char* key, T& out) {
  for (const auto& [k, v] : row) {
    if (k != key) continue;
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    check(ec == std::errc{} && ptr == end,
          std::string("farm row: malformed or out-of-range value for '") + key + "'");
    return;
  }
  throw SimError(std::string("farm row: missing field '") + key + "'");
}

}  // namespace

CellReport cell_report_from_row(
    const std::vector<std::pair<std::string, std::string>>& row) {
  CellReport rep;
#define TSIM_READ(type, name, merge) read_column(row, #name, rep.name);
#define TSIM_READ_HARQ(wire, member) read_column(row, #wire, rep.harq.member);
  TSIM_CELL_REPORT_COLUMNS(TSIM_READ, TSIM_READ_HARQ)
#undef TSIM_READ
#undef TSIM_READ_HARQ
  return rep;
}

namespace {

FarmResult run_farm_inline(const FarmConfig& cfg) {
  FarmResult result;
  result.cells.reserve(cfg.cells);
  for (u32 c = 0; c < cfg.cells; ++c)
    result.cells.push_back(run_cell(cfg, c, cfg.resume, nullptr, &result.ff));
  return result;
}

}  // namespace

#if TSIM_FARM_HAS_FORK

namespace {

/// read(2) with EINTR retry: a signal mid-gather must not truncate a
/// shard's JSON (it used to fail the whole farm).
ssize_t read_eintr(int fd, char* buf, size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

pid_t waitpid_eintr(pid_t pid, int* status) {
  for (;;) {
    const pid_t r = ::waitpid(pid, status, 0);
    if (r >= 0 || errno != EINTR) return r;
  }
}

int poll_eintr(struct pollfd* fds, nfds_t n, int timeout_ms) {
  for (;;) {
    const int r = ::poll(fds, n, timeout_ms);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// Parent-side preview of the ladder rung cell `cell`'s next recovery will
/// resume from: the newest snapshot whose container decodes (CRC, kind,
/// cell id, TTI within the horizon); -1 = clean start. The worker's own
/// ladder additionally survives semantic corruption that slips past the
/// CRC by falling further - the preview can only be newer, never wrong
/// about existence.
i64 newest_snapshot_tti(const FarmConfig& cfg, u32 cell) {
  const std::vector<u64> ttis = list_cell_snapshots(cfg.checkpoint_dir, cell);
  for (size_t i = ttis.size(); i-- > 0;) {
    if (ttis[i] > cfg.ttis) continue;
    const std::string path =
        cell_snapshot_path(cfg.checkpoint_dir, cell, ttis[i]);
    try {
      sim::SnapshotReader r(sim::read_snapshot_file(path, kCellSnapshotKind),
                            path);
      if (r.read_u32() == cell) return static_cast<i64>(ttis[i]);
    } catch (const sim::SnapshotError&) {
    } catch (const SimError&) {  // unreadable file
    }
  }
  return -1;
}

/// Worker process body: simulate the shard's cells and stream their JSON
/// rows, or enact the injected host fault. Host faults live entirely in
/// this harness - the simulated cells are untouched - so a retried or
/// inline-fallback shard reproduces its reports byte-identically.
[[noreturn]] void shard_worker(const FarmConfig& cfg, u32 shard, u32 attempt,
                               u32 shards, int write_fd) {
  const sim::HostFaultConfig& hf = cfg.host_fault;
  if (hf.fires(hf.stall_shard, shard, attempt)) {
    // Stalled worker: write nothing, keep the pipe open, hang until the
    // supervisor's wall-clock timeout SIGKILLs us.
    for (;;) ::pause();
  }
  std::FILE* out = ::fdopen(write_fd, "w");
  if (out == nullptr) ::_exit(3);

  std::vector<std::string> header = cell_report_header();
  if (cfg.pad_row_bytes > 0) header.push_back("pad");
  std::vector<std::vector<std::string>> rows;
  try {
    // Retried attempts always climb the snapshot ladder (that is the point
    // of checkpointing); first attempts only when cfg.resume asks for it.
    const bool allow_resume =
        cfg.resume || (attempt > 1 && !cfg.checkpoint_dir.empty());
    for (u32 c = shard; c < cfg.cells; c += shards) {
      rows.push_back(cell_report_row(run_cell(cfg, c, allow_resume, nullptr)));
      if (cfg.pad_row_bytes > 0)
        rows.back().push_back(std::string(cfg.pad_row_bytes, 'x'));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "farm shard %u: %s\n", shard, e.what());
    std::fclose(out);
    ::_exit(4);
  }

  const bool crash = hf.fires(hf.crash_shard, shard, attempt);
  const bool garble = hf.fires(hf.garble_shard, shard, attempt);
  if (crash || garble) {
    // Crash: half the JSON, then die with a non-zero status (a worker that
    // segfaulted mid-stream). Garble: the same truncated JSON but a clean
    // exit - only the parse step can catch it.
    const std::string text = sim::render_json_rows(header, rows);
    std::fwrite(text.data(), 1, text.size() / 2, out);
    std::fclose(out);
    ::_exit(crash ? 9 : 0);
  }

  sim::write_json_rows(out, header, rows);
  std::fclose(out);
  ::_exit(0);
}

}  // namespace

FarmResult run_farm(const FarmConfig& cfg) {
  cfg.validate();
  const u32 shards = std::min(cfg.shards, cfg.cells);
  // Inline only when there is nothing to supervise: one shard with a host
  // fault plan still forks, so the supervisor itself can be exercised.
  if (shards <= 1 && !cfg.host_fault.any()) return run_farm_inline(cfg);

  using Clock = std::chrono::steady_clock;
  struct Shard {
    pid_t pid = -1;
    int fd = -1;  // read end of the worker's pipe; -1 = not running
    u32 attempt = 0;
    std::string text;  // bytes drained so far
    Clock::time_point deadline;
    bool has_deadline = false;
    bool timed_out = false;
  };
  std::vector<Shard> sh(shards);

  FarmResult result;
  result.cells.resize(cfg.cells);
  std::vector<u8> filled(cfg.cells, 0);
  // Indices into result.failures per shard, so a later successful attempt
  // (or the inline fallback) can flip its earlier failures to recovered.
  std::vector<std::vector<size_t>> failure_idx(shards);

  const auto owned_cells = [&](u32 s) {
    std::vector<u32> cells;
    for (u32 c = s; c < cfg.cells; c += shards) cells.push_back(c);
    return cells;
  };

  const auto launch = [&](u32 s, u32 attempt) {
    int fds[2];
    check(::pipe(fds) == 0, "run_farm: pipe() failed");
    // stdio buffers are flushed before forking so a worker cannot replay
    // buffered output.
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    check(pid >= 0, "run_farm: fork() failed");
    if (pid == 0) {
      // Worker process. _exit (not exit) so the parent's atexit/stdio state
      // is never touched twice. Close every inherited pipe end that is not
      // ours (including read ends of siblings still running).
      ::close(fds[0]);
      for (const Shard& other : sh)
        if (other.fd >= 0) ::close(other.fd);
      shard_worker(cfg, s, attempt, shards, fds[1]);
    }
    ::close(fds[1]);
    sh[s] = Shard{};
    sh[s].pid = pid;
    sh[s].fd = fds[0];
    sh[s].attempt = attempt;
    if (cfg.shard_timeout_s > 0.0) {
      sh[s].deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(cfg.shard_timeout_s));
      sh[s].has_deadline = true;
    }
  };

  // Evaluates a reaped shard attempt. Returns "" and commits the reports on
  // success; the failure reason otherwise (nothing committed).
  const auto evaluate = [&](u32 s, int status) -> std::string {
    if (sh[s].timed_out)
      return sim::strf("timeout after %.1fs (SIGKILL)", cfg.shard_timeout_s);
    if (!WIFEXITED(status))
      return sim::strf("killed by signal %d",
                       WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    if (WEXITSTATUS(status) != 0)
      return sim::strf("exit status %d", WEXITSTATUS(status));
    std::vector<std::vector<std::pair<std::string, std::string>>> rows;
    if (!sim::parse_json_rows(sh[s].text, rows)) return "malformed JSON";
    std::vector<std::pair<u32, CellReport>> staged;
    try {
      for (const auto& row : rows) {
        CellReport rep = cell_report_from_row(row);
        check(rep.cell < cfg.cells && rep.cell % shards == s,
              "out-of-range or foreign cell in shard output");
        for (const auto& [c, r] : staged)
          check(c != rep.cell, "duplicate cell in shard output");
        staged.emplace_back(rep.cell, rep);
      }
    } catch (const std::exception& e) {
      return e.what();
    }
    if (staged.size() != owned_cells(s).size())
      return sim::strf("incomplete shard output (%zu of %zu cells)",
                       staged.size(), owned_cells(s).size());
    for (auto& [c, rep] : staged) {
      result.cells[c] = rep;
      filled[c] = 1;
    }
    for (const size_t i : failure_idx[s]) result.failures[i].recovered = true;
    return "";
  };

  const auto kill_all = [&] {
    for (Shard& w : sh) {
      if (w.fd < 0) continue;
      ::kill(w.pid, SIGKILL);
      ::close(w.fd);
      w.fd = -1;
      int status = 0;
      waitpid_eintr(w.pid, &status);
    }
  };

  for (u32 s = 0; s < shards; ++s) launch(s, 1);

  // Supervisor loop: drain every live pipe concurrently (poll; a shard's
  // output can exceed the pipe buffer, and the supervisor must never block
  // on one worker while another's writer blocks on a full pipe), enforce
  // wall-clock deadlines, and resolve each shard as it finishes.
  const auto any_running = [&] {
    for (const Shard& w : sh)
      if (w.fd >= 0) return true;
    return false;
  };
  while (any_running()) {
    std::vector<struct pollfd> pfds;
    std::vector<u32> pfd_shard;
    int timeout_ms = -1;
    const Clock::time_point now = Clock::now();
    for (u32 s = 0; s < shards; ++s) {
      if (sh[s].fd < 0) continue;
      pfds.push_back({sh[s].fd, POLLIN, 0});
      pfd_shard.push_back(s);
      if (sh[s].has_deadline && !sh[s].timed_out) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              sh[s].deadline - now)
                              .count();
        const int ms = left <= 0 ? 0 : static_cast<int>(std::min<long long>(
                                           left + 1, 60'000));
        timeout_ms = timeout_ms < 0 ? ms : std::min(timeout_ms, ms);
      }
    }
    check(poll_eintr(pfds.data(), pfds.size(), timeout_ms) >= 0,
          "run_farm: poll() failed");

    // Enforce deadlines first: an overdue worker is SIGKILLed; the kernel
    // then closes its pipe end and the normal EOF path below reaps it.
    const Clock::time_point after = Clock::now();
    for (u32 s = 0; s < shards; ++s) {
      if (sh[s].fd < 0 || !sh[s].has_deadline || sh[s].timed_out) continue;
      if (after >= sh[s].deadline) {
        sh[s].timed_out = true;
        ::kill(sh[s].pid, SIGKILL);
      }
    }

    for (size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const u32 s = pfd_shard[i];
      char buf[65536];
      const ssize_t n = read_eintr(sh[s].fd, buf, sizeof buf);
      check(n >= 0, "run_farm: read() failed");
      if (n > 0) {
        sh[s].text.append(buf, static_cast<size_t>(n));
        continue;
      }
      // EOF: the worker closed its pipe (exit or SIGKILL). Reap and decide.
      ::close(sh[s].fd);
      sh[s].fd = -1;
      int status = 0;
      check(waitpid_eintr(sh[s].pid, &status) == sh[s].pid,
            "run_farm: waitpid() failed");
      const std::string reason = evaluate(s, status);
      if (reason.empty()) continue;

      ShardFailure failure;
      failure.shard = s;
      failure.attempt = sh[s].attempt;
      failure.reason = reason;
      failure.cells = owned_cells(s);
      failure_idx[s].push_back(result.failures.size());
      result.failures.push_back(std::move(failure));

      switch (cfg.policy) {
        case FarmPolicy::kFailFast:
          kill_all();
          throw SimError(sim::strf("run_farm: shard %u attempt %u failed: %s",
                                   s, sh[s].attempt, reason.c_str()));
        case FarmPolicy::kRetry:
          if (sh[s].attempt < cfg.max_shard_attempts) {
            // Record which ladder rung the re-forked attempt will resume
            // each cell from (-1 = clean), then re-launch.
            if (!cfg.checkpoint_dir.empty())
              for (const u32 c : owned_cells(s))
                result.failures.back().resume_ttis.push_back(
                    newest_snapshot_tti(cfg, c));
            launch(s, sh[s].attempt + 1);
          } else {
            // Out of forked attempts: run the shard's cells inline,
            // resuming each from its newest valid snapshot (bounded
            // re-work). Cells are deterministic in (seed, cell id) alone
            // and restored continuations are bit-identical, so the
            // fallback reports are byte-identical to a clean worker's.
            for (const u32 c : owned_cells(s)) {
              i64 from = -1;
              result.cells[c] =
                  run_cell(cfg, c, !cfg.checkpoint_dir.empty(), &from);
              if (!cfg.checkpoint_dir.empty())
                result.failures.back().resume_ttis.push_back(from);
              filled[c] = 1;
            }
            for (const size_t fi : failure_idx[s])
              result.failures[fi].recovered = true;
          }
          break;
        case FarmPolicy::kDegrade:
          // Give up on the shard: zero-filled reports (cell id set) and an
          // unrecovered failure entry mark the hole.
          for (const u32 c : owned_cells(s)) {
            result.cells[c].cell = c;
            filled[c] = 1;
          }
          break;
      }
    }
  }

  for (u32 c = 0; c < cfg.cells; ++c)
    check(filled[c] != 0, sim::strf("run_farm: no report for cell %u", c));
  return result;
}

#else  // !TSIM_FARM_HAS_FORK

FarmResult run_farm(const FarmConfig& cfg) {
  cfg.validate();
  if (cfg.shards > 1)
    std::fprintf(stderr,
                 "run_farm: no fork() on this platform, running inline\n");
  return run_farm_inline(cfg);
}

#endif

}  // namespace tsim::mac
