#include "iss/machine.h"

#include <algorithm>

#include "rv/exec.h"

namespace tsim::iss {
namespace {

constexpr u32 kQuantum = 256;  // instructions per hart per scheduler turn

/// Placeholder translation table for a machine that has no program loaded
/// yet: every lookup misses, so a premature run() halts the harts exactly
/// like the pre-cache implementation did.
const TranslationCache& empty_translation() {
  static const TranslationCache empty;
  return empty;
}

/// Scoreboard: earliest cycle lane `i`'s instruction can issue, charging
/// RAW stalls to the lane.
inline u64 compute_issue(HartArrays& s, u32 i, const SbEntry& e, bool scoreboard) {
  u64 issue = s.cycle[i];
  if (scoreboard) {
    u64 ready = std::max(s.ready_col(e.d.rs1)[i], s.ready_col(e.d.rs2)[i]);
    if (e.flags & kSbReadsRs3) ready = std::max(ready, s.ready_col(e.d.rs3)[i]);
    if (e.flags & kSbReadsRdSrc) ready = std::max(ready, s.ready_col(e.d.rd)[i]);
    if (ready > issue) {
      s.raw_stall[i] += ready - issue;
      issue = ready;
    }
  }
  return issue;
}

/// Extra result latency of a load/AMO that hit `addr` (the timing model's
/// memory leg, shared by retire_timing and the lockstep sweep).
inline u32 memory_access_latency(u32 addr, u32 hartid, const TimingConfig& timing,
                                 const tera::TeraPoolConfig& cluster,
                                 const tera::ClusterMemory& mem) {
  if (addr >= tera::kL2Base) return timing.l2_latency;
  if (addr >= tera::kMmioBase) return 1;
  if (timing.numa_latency) {
    const auto route = mem.map().route(addr);
    const u32 tile = route ? route->tile : 0;
    return cluster.numa_latency(hartid, tile);
  }
  return timing.static_mem_latency;
}

/// Static-latency accounting for one retired instruction of lane `i`:
/// advances the lane clock and marks the destination busy until its result
/// latency elapses.
inline void retire_timing(HartArrays& s, u32 i, const SbEntry& e,
                          const rv::StepInfo& info, u64 issue,
                          const TimingConfig& timing,
                          const tera::TeraPoolConfig& cluster,
                          const tera::ClusterMemory& mem) {
  u64 cyc = issue + e.issue_cycles;
  if (info.branch_taken) cyc += timing.branch_taken_penalty;
  s.cycle[i] = cyc;

  u64 result_at = issue + e.result_latency;
  if (info.is_load || info.is_amo)
    result_at += memory_access_latency(info.mem_addr, i, timing, cluster, mem);
  if ((e.flags & kSbWritesRd) && e.d.rd != 0) s.ready_col(e.d.rd)[i] = result_at;
  if ((e.flags & kSbPostIncLoad) && e.d.rs1 != 0) s.ready_col(e.d.rs1)[i] = issue + 1;
}

/// True when `op` has any path to fault()/halt in rv::execute (memory ops
/// can misalign or leave the map; ebreak/invalid halt by design). The
/// specialized lockstep sweeps elide the per-member halted check for ops
/// that provably cannot fault - a hart on the run list is never halted on
/// entry, and a non-faulting op cannot make it so.
constexpr bool op_may_fault(rv::Op op) {
  switch (op) {
    case rv::Op::kAddi:
    case rv::Op::kAdd:
    case rv::Op::kSub:
    case rv::Op::kSlli:
    case rv::Op::kLui:
    case rv::Op::kMul:
    case rv::Op::kPMac:
    case rv::Op::kPvExtractH:
    case rv::Op::kPvInsertH:
    case rv::Op::kPvPackH:
    case rv::Op::kFaddH:
    case rv::Op::kFsubH:
    case rv::Op::kFmulH:
    case rv::Op::kFmaddH:
    case rv::Op::kFmsubH:
    case rv::Op::kVfmacH:
    case rv::Op::kVfcdotpH:
    case rv::Op::kVfccdotpH:
    case rv::Op::kVfdotpexSH:
    case rv::Op::kBeq:
    case rv::Op::kBne:
    case rv::Op::kBlt:
    case rv::Op::kBge:
      return false;
    default:
      return true;  // conservative: loads/stores/amo, ebreak, invalid, ...
  }
}

// Op classes of the specialized lockstep sweeps: which pass-C columns an op
// touches and which pass-B side channels it needs are compile-time facts of
// the opcode, so each sweep instantiation keeps only its own buffers/loops.
constexpr bool op_is_branch(rv::Op op) {
  return op == rv::Op::kBeq || op == rv::Op::kBne || op == rv::Op::kBlt ||
         op == rv::Op::kBge;
}
constexpr bool op_is_load_cls(rv::Op op) {
  return op == rv::Op::kLw || op == rv::Op::kLh || op == rv::Op::kPLw ||
         op == rv::Op::kPLh;
}
constexpr bool op_is_store_cls(rv::Op op) {
  return op == rv::Op::kSh || op == rv::Op::kSw || op == rv::Op::kPSw;
}

}  // namespace

double BatchStats::avg_width() const {
  return batches != 0 ? static_cast<double>(width_sum) / static_cast<double>(batches) : 0.0;
}

double BatchStats::avg_run_length() const {
  return runs != 0 ? static_cast<double>(run_entries) / static_cast<double>(runs) : 0.0;
}

double BatchStats::lockstep_fraction() const {
  const u64 total = lockstep_instructions + serial_instructions;
  return total != 0 ? static_cast<double>(lockstep_instructions) / static_cast<double>(total)
                    : 0.0;
}

u64 BatchStats::width_percentile(double p) const {
  u64 total = 0;
  for (const u64 v : width_hist) total += v;
  if (total == 0) return 0;
  const double target = p * static_cast<double>(total);
  u64 acc = 0;
  for (size_t w = 0; w < width_hist.size(); ++w) {
    acc += width_hist[w];
    if (static_cast<double>(acc) >= target && acc != 0) return static_cast<u64>(w);
  }
  return static_cast<u64>(width_hist.size() - 1);
}

Machine::Machine(const tera::TeraPoolConfig& cluster, TimingConfig timing, u32 active_harts)
    : cluster_(cluster),
      timing_(timing),
      mem_(std::make_unique<tera::ClusterMemory>(cluster)),
      tcache_(&empty_translation()),
      soa_(active_harts == 0 ? cluster.num_cores() : active_harts),
      sleep_(soa_.size(), static_cast<u8>(SleepState::kAwake)) {
  mem_->set_exit_handler([this](u32 code) { on_exit(code); });
  mem_->set_wake_handler([this](u32 target) { on_wake(target, current_cycle_); });
  bstats_.width_hist.assign(kMaxBatchWidth + 1, 0);
}

void Machine::reset_batch_stats() {
  bstats_ = BatchStats{};
  bstats_.width_hist.assign(kMaxBatchWidth + 1, 0);
}

Machine::ProgramHandle Machine::load_program(const rvasm::Program& prog) {
  const u64 key = program_fingerprint(prog);
  const u32 entry = program_entry_pc(prog);
  for (ProgramHandle h = 0; h < resident_.size(); ++h) {
    const ResidentProgram& r = *resident_[h];
    if (r.key == key && r.base == prog.base && r.entry_pc == entry &&
        r.image == prog.words) {
      select_program(h);  // cache hit: no retranslation
      return h;
    }
  }
  auto r = std::make_unique<ResidentProgram>();
  r->key = key;
  r->base = prog.base;
  r->image = prog.words;
  r->tcache = TranslationCache(prog);
  r->entry_pc = entry;
  resident_.push_back(std::move(r));
  const ProgramHandle h = static_cast<ProgramHandle>(resident_.size() - 1);
  select_program(h);
  return h;
}

void Machine::select_program(ProgramHandle handle) {
  check(handle < resident_.size(), "select_program: unknown program handle");
  if (handle != active_) {
    const ResidentProgram& r = *resident_[handle];
    mem_->load_program(r.base, r.image);
    tcache_ = &r.tcache;
    entry_pc_ = r.entry_pc;
    active_ = handle;
    ++program_switches_;
  }
  reset_harts();
}

void Machine::reset_harts() {
  soa_.reset(entry_pc_);
  std::fill(sleep_.begin(), sleep_.end(), static_cast<u8>(SleepState::kAwake));
  stop_ = false;
  exited_ = false;
  exit_code_ = 0;
  if (faults_armed_) {
    // Re-arm scheduled faults: a faulted run replays bit-for-bit.
    for (HartFault& f : hart_faults_) f.applied = false;
    std::fill(hart_hung_.begin(), hart_hung_.end(), u8{0});
    faults_applied_ = 0;
  }
}

void Machine::inject_hart_fault(u32 hart, u64 at_instret, bool hang) {
  check(hart < num_harts(), "inject_hart_fault: hart out of range");
  if (hart_hung_.size() != num_harts()) hart_hung_.assign(num_harts(), 0);
  hart_faults_.push_back(HartFault{hart, at_instret, hang, false});
  faults_armed_ = true;
}

void Machine::clear_hart_faults() {
  hart_faults_.clear();
  std::fill(hart_hung_.begin(), hart_hung_.end(), u8{0});
  faults_armed_ = false;
  faults_applied_ = 0;
}

void Machine::apply_hart_fault(HartFault& f) {
  f.applied = true;
  ++faults_applied_;
  if (f.hang) {
    // Stuck hart: parked asleep with the hung mark set, so on_wake ignores
    // it forever. Peers blocked on it at a barrier deadlock - run() detects
    // the empty run list and reports it, exactly like a real hung core
    // stalls its cluster.
    soa_.arch[f.hart].in_wfi = true;
    hart_hung_[f.hart] = 1;
    sleep_[f.hart] = static_cast<u8>(SleepState::kSleeping);
  } else {
    // Transient trap: the hart halts like an architectural fault.
    soa_.arch[f.hart].halted = true;
    soa_.arch[f.hart].trapped = true;
  }
}

void Machine::on_exit(u32 code) {
  exit_code_ = code;
  exited_ = true;
  stop_ = true;
}

void Machine::on_wake(u32 target, u64 waker_cycle) {
  const auto wake_one = [&](u32 i) {
    if (i >= soa_.size()) return;
    if (faults_armed_ && hart_hung_[i] != 0) return;  // stuck harts ignore wakes
    soa_.wake_cycle[i] = waker_cycle;
    u8& s = sleep_[i];
    if (s == static_cast<u8>(SleepState::kSleeping)) {
      s = static_cast<u8>(SleepState::kAwake);
      // The hart was parked: hand it back to the run list. Wakes only happen
      // inside a store instruction or an event fire, so insert in sorted
      // position. Adjusting pos_ when the insertion lands at or before it
      // reproduces the scan-all-harts visit order exactly: a hart woken
      // "behind" the scan runs next pass, a hart woken "ahead" still runs
      // this pass.
      if (running_) {
        const auto it = std::lower_bound(awake_.begin(), awake_.end(), i);
        const size_t idx = static_cast<size_t>(it - awake_.begin());
        awake_.insert(it, i);
        if (idx <= pos_) ++pos_;
        // A lockstep batch in flight ends at the next superblock boundary so
        // the woken hart is rescheduled with (close to) serial promptness.
        if (batch_active_) batch_wake_ = true;
      }
    } else if (s == static_cast<u8>(SleepState::kAwake)) {
      s = static_cast<u8>(SleepState::kWakePending);
    }
  };
  if (target == ~0u) {
    for (u32 i = 0; i < soa_.size(); ++i) wake_one(i);
  } else {
    wake_one(target);
  }
}

bool Machine::park_in_wfi(u32 hart_index) {
  u8& s = sleep_[hart_index];
  if (s == static_cast<u8>(SleepState::kWakePending)) {
    // A wake arrived between barrier arrival and wfi: consume it and keep going.
    s = static_cast<u8>(SleepState::kAwake);
    resume_from_wfi(hart_index);
    return false;
  }
  s = static_cast<u8>(SleepState::kSleeping);
  return true;  // now asleep; the scheduler resumes us after a wake
}

void Machine::resume_from_wfi(u32 hart_index) {
  soa_.arch[hart_index].in_wfi = false;
  const u64 resume = soa_.wake_cycle[hart_index] + timing_.barrier_wake_cost;
  if (resume > soa_.cycle[hart_index]) {
    soa_.wfi_stall[hart_index] += resume - soa_.cycle[hart_index];
    soa_.cycle[hart_index] = resume;
  }
}

template <bool kRecord>
u64 Machine::exec_quantum_impl(u32 hart_index, u64 budget, TurnEnd& end,
                               std::vector<TraceRun>* trace) {
  const u32 i = hart_index;
  HartLane h = soa_.lane(i);
  const bool scoreboard = timing_.scoreboard;
  u64 executed = 0;
  end = TurnEnd::kBudget;
  while (budget != 0) {
    const SbEntry* e = tcache_->entry(h.pc);
    if (e == nullptr || e->d.op == rv::Op::kInvalid) {
      h.halted = true;
      h.trapped = true;
      end = TurnEnd::kHalted;
      return executed;
    }
    // Retire the whole straight-line run: only its last instruction can
    // branch or enter wfi, so pc tracks the entry pointer implicitly. Any
    // instruction may still fault, which shows up as h.halted.
    const u32 n = static_cast<u32>(std::min<u64>(e->run_len, budget));
    if constexpr (kRecord) trace->push_back(TraceRun{e, h.pc, n});
    budget -= n;
    for (u32 k = 0; k < n; ++k, ++e) {
      const u64 issue = compute_issue(soa_, i, *e, scoreboard);
      h.cycle = issue;
      if (e->flags & kSbStore) current_cycle_ = issue;
      const rv::StepInfo info = rv::execute(e->d, h, *mem_);
      soa_.mix_col(e->mix)[i]++;
      retire_timing(soa_, i, *e, info, issue, timing_, cluster_, *mem_);
      ++executed;
      if (h.halted) {
        if constexpr (kRecord) trace->back().n = k + 1;
        end = TurnEnd::kHalted;
        return executed;
      }
      if (stop_) {
        if constexpr (kRecord) trace->back().n = k + 1;
        end = TurnEnd::kStopped;
        return executed;
      }
    }
    if (h.in_wfi && park_in_wfi(i)) {
      end = TurnEnd::kAsleep;
      return executed;
    }
  }
  return executed;
}

u64 Machine::exec_quantum(u32 hart_index, u64 budget, TurnEnd& end) {
  return exec_quantum_impl<false>(hart_index, budget, end, nullptr);
}

u64 Machine::exec_quantum_record(u32 hart_index, u64 budget, TurnEnd& end,
                                 std::vector<TraceRun>& trace) {
  return exec_quantum_impl<true>(hart_index, budget, end, &trace);
}

u64 Machine::exec_quantum_traced(u32 hart_index, u64 budget, TurnEnd& end) {
  const u32 i = hart_index;
  HartLane h = soa_.lane(i);
  u64 executed = 0;
  end = TurnEnd::kBudget;
  while (budget != 0) {
    const SbEntry* e = tcache_->entry(h.pc);
    if (e == nullptr || e->d.op == rv::Op::kInvalid) {
      h.halted = true;
      h.trapped = true;
      end = TurnEnd::kHalted;
      return executed;
    }
    const u64 issue = compute_issue(soa_, i, *e, timing_.scoreboard);
    h.cycle = issue;
    current_cycle_ = issue;
    if (trace_) trace_(hart_index, h.pc, e->d);
    const rv::StepInfo info = rv::execute(e->d, h, *mem_);
    soa_.mix_col(e->mix)[i]++;
    retire_timing(soa_, i, *e, info, issue, timing_, cluster_, *mem_);
    ++executed;
    --budget;
    if (h.halted) {
      end = TurnEnd::kHalted;
      return executed;
    }
    if (h.in_wfi && park_in_wfi(i)) {
      end = TurnEnd::kAsleep;
      return executed;
    }
    if (stop_) {
      end = TurnEnd::kStopped;
      return executed;
    }
  }
  return executed;
}

u32 Machine::scan_convergent(u32 limit) const {
  if (limit < kMinBatchWidth) return 1;
  const u32* list = awake_.data() + pos_;
  const u32 pc = soa_.pc[list[0]];
  u32 width = 1;
  while (width < limit && soa_.pc[list[width]] == pc) ++width;
  return width >= kMinBatchWidth ? width : 1;
}

u64 Machine::exec_followers_replay(const u32* ids, u32 count, u64 budget,
                                   const std::vector<TraceRun>& trace,
                                   BatchEnd* ends, u64* rems) {
  BatchStats& stats = bstats_;
  // Live followers with order-preserving compaction; lid[k] is the hart id
  // (= SoA lane) of live member k, orig[k] its formation index so ends/rems
  // stay addressable as followers drop out.
  u32 lid[kMaxBatchWidth];
  u16 orig[kMaxBatchWidth];
  u32 live = count;
  for (u32 k = 0; k < count; ++k) {
    lid[k] = ids[k];
    orig[k] = static_cast<u16>(k);
    ends[k] = BatchEnd::kRun;
    rems[k] = budget;
  }
  ++stats.batches;
  stats.width_sum += count + 1;  // reported widths include the leader
  stats.width_max = std::max<u64>(stats.width_max, count + 1);
  if (count + 1 < stats.width_hist.size()) ++stats.width_hist[count + 1];

  const auto drop = [&](u32 k, BatchEnd why) {
    ends[orig[k]] = why;
    for (u32 t = k + 1; t < live; ++t) {
      lid[t - 1] = lid[t];
      orig[t - 1] = orig[t];
    }
    --live;
  };

  const bool scoreboard = timing_.scoreboard;
  tera::ClusterMemory& mem = *mem_;
  u64 executed = 0;
  u64 consumed = 0;  // instructions each live follower retired so far
  bool diverged = false;
  bool ended_early = false;  // stop / wake cut the replay short
  batch_wake_ = false;
  batch_active_ = true;

  // Per-sweep scratch handing results between the three passes, indexed by
  // live member slot.
  u64 issue_buf[kMaxBatchWidth];
  u32 addr_buf[kMaxBatchWidth];
  u8 taken_buf[kMaxBatchWidth];
  u8 halt_buf[kMaxBatchWidth];

  for (size_t r = 0; r < trace.size() && live != 0 && !ended_early; ++r) {
    const TraceRun& run = trace[r];
    if (r != 0) {
      // Run boundary: a follower whose branch outcome left the leader's
      // path falls out and finishes its turn on the serial path.
      for (u32 k = 0; k < live;) {
        if (soa_.pc[lid[k]] != run.pc) {
          diverged = true;
          rems[orig[k]] = budget - consumed;
          drop(k, BatchEnd::kRun);
          continue;
        }
        ++k;
      }
      if (live == 0) break;
      if (batch_wake_) {
        // A wake landed in the run list: hand the remaining turns back to
        // the serial scheduler so the woken hart is rescheduled promptly.
        ++stats.split_wake;
        for (u32 k = 0; k < live; ++k) rems[orig[k]] = budget - consumed;
        ended_early = true;
        break;
      }
    }
    ++stats.runs;
    stats.run_entries += run.n;
    const SbEntry* e = run.base;
    for (u32 s = 0; s < run.n; ++s, ++e) {
      const SbEntry ent = *e;  // per-sweep constants stay in registers
      // Member sweep, templated on the (loop-invariant) opcode, split into
      // three lane-major passes over the SoA columns:
      //   A. scoreboard issue + RAW stall        (vector, u64 columns)
      //   B. architectural semantics             (scalar, member order)
      //   C. retire clock/ready/mix              (vector, u64 columns)
      // The split is sound because pass A/C touch only per-lane timing
      // columns no other lane reads, and pass B runs in member order, so
      // the DUT-visible memory-access order is exactly the serial path's
      // (the bit-exactness contract in machine.h). The hot ops below
      // dispatch ONCE per SbEntry to a straight-line per-op kernel
      // (rv::execute_known folds the decode switch away); everything else
      // takes the generic member loop - bit-identical semantics either way
      // (execute_impl is the single source of truth).
      // Generic member loop for everything off the specialized list: per
      // member, the exact serial-path helper sequence.
      const auto sweep_generic = [&]() {
        const bool is_store = (ent.flags & kSbStore) != 0;
        for (u32 k = 0; k < live;) {
          const u32 i = lid[k];
          HartLane h = soa_.lane(i);
          const u64 issue = compute_issue(soa_, i, ent, scoreboard);
          if (is_store) current_cycle_ = issue;
          h.cycle = issue;  // mcycle-visible (CSR reads take this path)
          const rv::StepInfo info = rv::execute(ent.d, h, mem);
          soa_.mix_col(ent.mix)[i] += 1;
          retire_timing(soa_, i, ent, info, issue, timing_, cluster_, mem);
          ++executed;
          if (h.halted) [[unlikely]] {
            drop(k, BatchEnd::kHalted);
            continue;
          }
          ++k;
        }
      };
      const auto sweep_vec = [&]<rv::Op kOp>() {
        constexpr bool kBranch = op_is_branch(kOp);
        constexpr bool kLoad = op_is_load_cls(kOp);
        constexpr bool kStoreCls = op_is_store_cls(kOp);
        // Per-entry invariants of the timing model, hoisted out of the
        // passes (values identical to what compute_issue/retire_timing read
        // per member on the serial path; the pass bodies are the same
        // arithmetic in the same per-lane order).
        const u8 r1 = ent.d.rs1, r2 = ent.d.rs2, rd = ent.d.rd;
        const bool writes_rd = (ent.flags & kSbWritesRd) != 0 && rd != 0;
        const bool post_inc = (ent.flags & kSbPostIncLoad) != 0 && r1 != 0;
        const u64 issue_add = ent.issue_cycles;
        const u64 latency_add = ent.result_latency;
        u64* __restrict const cyc = soa_.cycle.data();
        // Pin the member count in a local: `live`'s address escapes into
        // drop(), so loop bounds on it defeat the vectorizer's iteration
        // count analysis (no store in the passes can change `n`).
        const u32 n = live;

        // Lane addressing: batches form over sorted run lists, so the live
        // members are almost always a window of consecutive hart ids - the
        // passes iterate unit-stride directly over the columns (the shape
        // the compiler vectorizes). A window fragmented by a mid-trace
        // drop-out takes the generic member loop instead: gather-indexed
        // pass variants would double every kernel's code size for a case
        // that occurs only after a fault or serial-finish split.
        const u32 lane0 = lid[0];
        if (lid[n - 1] - lane0 != n - 1) {
          sweep_generic();
          return;
        }

        const auto passes = [&](auto at) {
          if constexpr (!kBranch && !kLoad && !kStoreCls) {
            // Pure ALU/FP shape: the timing pass fuses A and C into ONE
            // vector loop per member window. Running it before the
            // semantics is sound for exactly this class - the op reads
            // neither cycle nor ready (no CSR access on the specialized
            // list), makes no memory access (no current_cycle_ refresh, no
            // wake handler), and cannot fault - and the fused loop is the
            // same per-lane arithmetic in the same order as split passes.
            // (kSbPostIncLoad never occurs here: the flag is only set on
            // post-increment loads, which take the kLoad shape.)
            u64* __restrict const mx = soa_.mix_col(ent.mix);
            u64* __restrict const out = soa_.ready_col(rd);
            const auto fused = [&](auto wr) {
              if (scoreboard) {
                u64* __restrict const stall = soa_.raw_stall.data();
                const u64* __restrict c1 = soa_.ready_col(r1);
                const u64* __restrict c2 = soa_.ready_col(r2);
                const u64* __restrict c3 =
                    (ent.flags & kSbReadsRs3) ? soa_.ready_col(ent.d.rs3) : c1;
                const u64* __restrict cd =
                    (ent.flags & kSbReadsRdSrc) ? soa_.ready_col(rd) : c1;
                for (u32 k = 0; k < n; ++k) {
                  const size_t i = at(k);
                  const u64 c = cyc[i];
                  const u64 ready =
                      std::max(std::max(c1[i], c2[i]), std::max(c3[i], cd[i]));
                  const u64 st = ready > c ? ready - c : 0;
                  stall[i] += st;
                  const u64 issue = c + st;
                  cyc[i] = issue + issue_add;
                  if constexpr (wr()) out[i] = issue + latency_add;
                  mx[i] += 1;
                }
              } else {
                for (u32 k = 0; k < n; ++k) {
                  const size_t i = at(k);
                  const u64 issue = cyc[i];
                  cyc[i] = issue + issue_add;
                  if constexpr (wr()) out[i] = issue + latency_add;
                  mx[i] += 1;
                }
              }
            };
            if (writes_rd) {
              fused([] { return true; });
            } else {
              fused([] { return false; });
            }
            for (u32 k = 0; k < n; ++k) {
              HartLane h = soa_.lane(at(k));
              rv::execute_known<kOp>(ent.d, h, mem);
            }
            return;
          }

          if (scoreboard) {
            u64* __restrict const stall = soa_.raw_stall.data();
            const u64* __restrict c1 = soa_.ready_col(r1);
            const u64* __restrict c2 = soa_.ready_col(r2);
            // Columns the entry does not read alias c1: max() against an
            // already-included column is a no-op, keeping pass A branch-free
            // (and vectorizable) for every operand shape.
            const u64* __restrict c3 =
                (ent.flags & kSbReadsRs3) ? soa_.ready_col(ent.d.rs3) : c1;
            const u64* __restrict cd =
                (ent.flags & kSbReadsRdSrc) ? soa_.ready_col(rd) : c1;
            for (u32 k = 0; k < n; ++k) {
              const u32 i = at(k);
              const u64 c = cyc[i];
              const u64 ready =
                  std::max(std::max(c1[i], c2[i]), std::max(c3[i], cd[i]));
              const u64 st = ready > c ? ready - c : 0;
              stall[i] += st;
              issue_buf[k] = c + st;
            }
          } else {
            for (u32 k = 0; k < n; ++k) issue_buf[k] = cyc[at(k)];
          }

          // Pass B, member order. The pre-execute cycle store is observable
          // only through the mcycle CSR reads of the generic path (none of
          // the specialized ops read CSRs) - pass C overwrites it either
          // way, so the specialized sweeps elide it.
          for (u32 k = 0; k < n; ++k) {
            if constexpr (kStoreCls) current_cycle_ = issue_buf[k];
            HartLane h = soa_.lane(at(k));
            const rv::StepInfo info = rv::execute_known<kOp>(ent.d, h, mem);
            if constexpr (kBranch) taken_buf[k] = info.branch_taken;
            if constexpr (kLoad) addr_buf[k] = info.mem_addr;
            if constexpr (kLoad || kStoreCls) halt_buf[k] = info.halted;
          }

          // Pass C retires every member that executed, faulted or not (the
          // serial path charges timing before the halted check); faulting
          // members drop after the passes.
          if constexpr (kBranch) {
            const u64 pen = timing_.branch_taken_penalty;
            for (u32 k = 0; k < n; ++k)
              cyc[at(k)] = issue_buf[k] + issue_add + (taken_buf[k] ? pen : 0);
          } else {
            for (u32 k = 0; k < n; ++k) cyc[at(k)] = issue_buf[k] + issue_add;
          }
          if (writes_rd) {
            u64* __restrict const out = soa_.ready_col(rd);
            if constexpr (kLoad) {
              if (!timing_.numa_latency) {
                // memory_access_latency's static leg, inlined so the loop
                // stays branch-light and vectorizable.
                const u64 l2lat = timing_.l2_latency;
                const u64 slat = timing_.static_mem_latency;
                for (u32 k = 0; k < n; ++k) {
                  const u32 a = addr_buf[k];
                  const u64 lat = a >= tera::kL2Base
                                      ? l2lat
                                      : (a >= tera::kMmioBase ? 1 : slat);
                  out[at(k)] = issue_buf[k] + latency_add + lat;
                }
              } else {
                for (u32 k = 0; k < n; ++k)
                  out[at(k)] = issue_buf[k] + latency_add +
                               memory_access_latency(addr_buf[k], at(k),
                                                     timing_, cluster_, mem);
              }
            } else {
              for (u32 k = 0; k < n; ++k)
                out[at(k)] = issue_buf[k] + latency_add;
            }
          }
          if (post_inc) {
            u64* __restrict const o1 = soa_.ready_col(r1);
            for (u32 k = 0; k < n; ++k) o1[at(k)] = issue_buf[k] + 1;
          }
          u64* __restrict const mx = soa_.mix_col(ent.mix);
          for (u32 k = 0; k < n; ++k) mx[at(k)] += 1;
        };
        // size_t index: a u32 `lane0 + k` may wrap (defined behaviour), so
        // the vectorizer cannot treat the accesses as affine; 64-bit
        // arithmetic keeps them provably unit-stride.
        passes([lane0](u32 k) { return size_t{lane0} + k; });

        executed += live;
        if constexpr (kLoad || kStoreCls) {
          // Deferred fault drop-outs; halt_buf is indexed by pre-drop slot,
          // so walk it while compacting lid/orig in place.
          const u32 was = live;
          u32 k = 0;
          for (u32 src = 0; src < was; ++src) {
            if (halt_buf[src]) [[unlikely]] {
              drop(k, BatchEnd::kHalted);
            } else {
              ++k;
            }
          }
        }
      };
// Specialized sweeps for the ops that dominate the MMSE/barrier kernels
// (addi/p.lw/vfccdotp.h/sh/pv.extract.h cover ~2/3 of retired instructions;
// the rest of the list rounds out the kernels' inner loops across the
// supported precisions). Adding an op here is a pure perf knob.
#define TSIM_SWEEP_CASE(OP)                       \
  case rv::Op::OP:                                \
    sweep_vec.template operator()<rv::Op::OP>();  \
    break;
      switch (ent.d.op) {
        TSIM_SWEEP_CASE(kAddi)
        TSIM_SWEEP_CASE(kAdd)
        TSIM_SWEEP_CASE(kSub)
        TSIM_SWEEP_CASE(kSlli)
        TSIM_SWEEP_CASE(kLui)
        TSIM_SWEEP_CASE(kMul)
        TSIM_SWEEP_CASE(kLw)
        TSIM_SWEEP_CASE(kLh)
        TSIM_SWEEP_CASE(kSh)
        TSIM_SWEEP_CASE(kSw)
        TSIM_SWEEP_CASE(kPLw)
        TSIM_SWEEP_CASE(kPLh)
        TSIM_SWEEP_CASE(kPSw)
        TSIM_SWEEP_CASE(kPMac)
        TSIM_SWEEP_CASE(kPvExtractH)
        TSIM_SWEEP_CASE(kPvInsertH)
        TSIM_SWEEP_CASE(kPvPackH)
        TSIM_SWEEP_CASE(kFaddH)
        TSIM_SWEEP_CASE(kFsubH)
        TSIM_SWEEP_CASE(kFmulH)
        TSIM_SWEEP_CASE(kFmaddH)
        TSIM_SWEEP_CASE(kFmsubH)
        TSIM_SWEEP_CASE(kVfmacH)
        TSIM_SWEEP_CASE(kVfcdotpH)
        TSIM_SWEEP_CASE(kVfccdotpH)
        TSIM_SWEEP_CASE(kVfdotpexSH)
        TSIM_SWEEP_CASE(kBeq)
        TSIM_SWEEP_CASE(kBne)
        TSIM_SWEEP_CASE(kBlt)
        TSIM_SWEEP_CASE(kBge)
        default:
          sweep_generic();
          break;
      }
#undef TSIM_SWEEP_CASE
      ++consumed;
      // stop_ is consulted once per sweep, mirroring the serial loop: when
      // the leader (or a follower store) raised it, every live follower has
      // retired exactly one instruction past the stop, like the serial
      // harts scheduled after the raiser.
      if (stop_) [[unlikely]] {
        ++stats.split_stop;
        while (live != 0) drop(0, BatchEnd::kStopped);
        ended_early = true;
        break;
      }
      if (ent.d.op == rv::Op::kWfi) {
        // wfi terminates every superblock, so this is the run's final
        // sweep: park the followers in visit order, exactly where their
        // serial turns would have ended. A follower that consumed a
        // pending wake inside park_in_wfi keeps running.
        for (u32 k = 0; k < live;) {
          if (park_in_wfi(lid[k])) {
            drop(k, BatchEnd::kAsleep);
            continue;
          }
          ++k;
        }
      }
      if (live == 0) break;
    }
  }

  // Trace exhausted with live followers: either the leader used its whole
  // quantum (so did they - turn over), or the leader's turn ended early
  // (park/halt/stop) and the still-runnable followers finish serially.
  for (u32 k = 0; k < live; ++k) {
    if (consumed == budget) {
      ends[orig[k]] = BatchEnd::kBudget;
    } else {
      rems[orig[k]] = budget - consumed;
    }
  }
  if (live != 0) {
    if (consumed == budget) ++stats.split_budget;
    else if (!ended_early) ++stats.split_drain;
  }
  if (diverged) ++stats.split_divergence;

  batch_active_ = false;
  stats.lockstep_instructions += executed;
  return executed;
}

void Machine::erase_awake(size_t pos) {
  awake_.erase(awake_.begin() + static_cast<ptrdiff_t>(pos));
  if (pos < pos_) --pos_;
}

u64 Machine::reconcile_batch(const u32* ids, u32 width, TurnEnd leader_end,
                             const BatchEnd* follower_ends, const u64* rems) {
  u64 executed = 0;
  for (u32 k = 0; k < width; ++k) {
    const u32 id = ids[k];
    BatchEnd be;
    if (k == 0) {
      be = leader_end == TurnEnd::kAsleep    ? BatchEnd::kAsleep
           : leader_end == TurnEnd::kHalted  ? BatchEnd::kHalted
           : leader_end == TurnEnd::kStopped ? BatchEnd::kStopped
                                             : BatchEnd::kBudget;
    } else {
      be = follower_ends[k - 1];
    }
    // Members are re-located by id: wakes during the batch (or the serial
    // finish below) may have shifted positions, but the list is sorted and
    // members never leave it mid-batch.
    const auto locate = [this, id] {
      return static_cast<size_t>(std::lower_bound(awake_.begin(), awake_.end(), id) -
                                 awake_.begin());
    };
    const size_t pos = locate();
    switch (be) {
      case BatchEnd::kAsleep:
      case BatchEnd::kHalted:
        erase_awake(pos);
        break;
      case BatchEnd::kBudget:
      case BatchEnd::kStopped:
        pos_ = pos + 1;
        break;
      case BatchEnd::kRun: {
        // Finish the member's turn on the serial path with the exact
        // remaining quantum; the scan position is parked on it so wake
        // inserts during the finish see the exact serial scan position.
        pos_ = pos;
        TurnEnd end;
        const u64 n = exec_quantum(id, rems[k - 1], end);
        executed += n;
        bstats_.serial_instructions += n;
        const size_t now = locate();
        if (end == TurnEnd::kAsleep || end == TurnEnd::kHalted) {
          erase_awake(now);
          pos_ = now;
        } else {
          pos_ = now + 1;
        }
        break;
      }
    }
  }
  return executed;
}

RunResult Machine::run(u64 max_instructions) {
  RunResult res;
  u64 executed = 0;

  // Build the awake run list once; after this the scheduler never loads a
  // sleep state - on_wake re-inserts woken harts.
  awake_.clear();
  for (u32 i = 0; i < num_harts(); ++i) {
    if (soa_.arch[i].halted) continue;
    if (sleep_[i] == static_cast<u8>(SleepState::kSleeping)) continue;
    awake_.push_back(i);
  }
  pos_ = 0;
  running_ = true;

  u32 batch_ids[kMaxBatchWidth];
  BatchEnd batch_ends[kMaxBatchWidth];
  u64 batch_rems[kMaxBatchWidth];

  bool first_pass = true;
  for (;;) {
    if (first_pass || pos_ >= awake_.size()) {
      // Pass boundary (the sorted list was scanned end to end). stop_ is
      // only consulted here and after each retired instruction, mirroring
      // the original scan-all-harts loop cycle for cycle.
      first_pass = false;
      pos_ = 0;
      if (stop_) break;
      if (awake_.empty()) {
        for (u32 i = 0; i < num_harts(); ++i) {
          if (!soa_.arch[i].halted) {
            res.deadlock = true;  // live harts asleep, nobody left to wake them
            break;
          }
        }
        break;
      }
    }
    const u32 i = awake_[pos_];
    if (soa_.arch[i].in_wfi) resume_from_wfi(i);
    u64 budget = kQuantum;
    if (max_instructions != 0)
      budget = std::min<u64>(budget, max_instructions - executed);

    // Scheduled fault hook (cold branch; see inject_hart_fault): a due
    // fault lands at this turn boundary, a pending one clamps the turn's
    // budget so the NEXT visit of this hart sits exactly at its instret.
    if (faults_armed_) {
      bool fault_applied = false;
      for (HartFault& f : hart_faults_) {
        if (f.applied || f.hart != i) continue;
        const u64 done = soa_.instret[i];
        if (done >= f.at_instret) {
          apply_hart_fault(f);
          fault_applied = true;
          break;
        }
        budget = std::min(budget, f.at_instret - done);
      }
      if (fault_applied) {
        erase_awake(pos_);
        continue;
      }
    }

    // Convergence batch: consecutive same-pc harts from pos_ (see the SPMD
    // batching note in the header). Every member needs a full quantum of
    // budget headroom, so a max_instructions cut always lands on a serial
    // turn and budget semantics stay exactly serial. Armed faults force the
    // serial oracle: exact instret boundaries, no replay.
    u32 width = 1;
    if (batching_ && !trace_ && !faults_armed_ && budget == kQuantum &&
        awake_.size() - pos_ >= kMinBatchWidth) {
      u64 limit = std::min<u64>(kMaxBatchWidth, awake_.size() - pos_);
      if (max_instructions != 0)
        limit = std::min<u64>(limit, (max_instructions - executed) / kQuantum);
      width = scan_convergent(static_cast<u32>(limit));
    }

    if (width >= 2) {
      for (u32 k = 0; k < width; ++k) {
        batch_ids[k] = awake_[pos_ + k];
        // Turn-start wake accounting for the joining harts: it reads only
        // the hart's own wake_cycle, so resuming at formation is
        // bit-identical to resuming at the hart's serial turn.
        if (k != 0 && soa_.arch[batch_ids[k]].in_wfi) resume_from_wfi(batch_ids[k]);
      }
      // Leader turn: a plain serial quantum (pos_ is parked on the leader,
      // so wakes it raises see the exact serial scan position) that records
      // its superblock runs for the followers to replay.
      leader_trace_.clear();
      TurnEnd leader_end;
      const u64 leader_n = exec_quantum_record(batch_ids[0], kQuantum,
                                               leader_end, leader_trace_);
      executed += leader_n;
      bstats_.serial_instructions += leader_n;
      executed += exec_followers_replay(batch_ids + 1, width - 1, kQuantum,
                                        leader_trace_, batch_ends, batch_rems);
      executed += reconcile_batch(batch_ids, width, leader_end, batch_ends,
                                  batch_rems);
    } else {
      TurnEnd end;
      const u64 n = trace_ ? exec_quantum_traced(i, budget, end)
                           : exec_quantum(i, budget, end);
      executed += n;
      if (!trace_ && batching_) bstats_.serial_instructions += n;
      if (end == TurnEnd::kAsleep || end == TurnEnd::kHalted) {
        erase_awake(pos_);
      } else {
        ++pos_;
      }
    }
    if (max_instructions != 0 && executed >= max_instructions) break;
  }

  running_ = false;
  res.exited = exited_;
  res.exit_code = exit_code_;
  res.instructions = executed;
  return res;
}

u64 Machine::total_instructions() const {
  u64 sum = 0;
  for (const u64 n : soa_.instret) sum += n;
  return sum;
}

u64 Machine::estimated_cycles() const {
  u64 mx = 0;
  for (const u64 c : soa_.cycle) mx = std::max(mx, c);
  return mx;
}

u64 Machine::total_cycles() const {
  u64 sum = 0;
  for (const u64 c : soa_.cycle) sum += c;
  return sum;
}

}  // namespace tsim::iss
