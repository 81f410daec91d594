// Per-UE HARQ state machine: the slot-to-slot persistent state that turns
// independent slots into closed-loop traffic (ROADMAP "multi-cell gNB farm").
//
// Each UE owns `HarqConfig::num_processes` stop-and-wait HARQ processes. A
// process carries one transport block from its first transmission until the
// block is ACKed (CRC pass) or dropped after `max_attempts` transmissions;
// while it waits for a retransmission opportunity its soft-buffer copy stays
// resident (Chase combining keeps one LLR-sized buffer per process, so
// occupancy is pdu_bits per active process, not per attempt). Retransmission
// combining is modelled as an effective-SNR boost: transmission k of a block
// is generated at phy::Channel::chase_combined_snr_db(base, k).
//
// The entity is pure bookkeeping - no RNG, no PHY - so every edge case
// (max-attempt drop, soft-buffer release, all-processes-busy stall) is unit
// testable without a simulation behind it (tests/mac_test.cpp).
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/types.h"
#include "sim/snapshot.h"

namespace tsim::mac {

struct HarqConfig {
  u32 num_processes = 8;  // concurrent stop-and-wait processes per UE
  u32 max_attempts = 4;   // transmissions per block (incl. the first), then drop
  bool enabled = true;    // false = single-shot: every CRC failure drops (A/B)
  /// Slots an in-flight transmission waits for its CRC indication before the
  /// attempt times out and resolves as a NACK (expire_overdue). 0 = wait
  /// forever - the right setting when feedback cannot be lost; any lost or
  /// over-delayed FAPI indication (sim/fault.h) would otherwise wedge the
  /// process in in_flight for the rest of the run.
  u32 feedback_timeout_slots = 0;

  /// Transmissions a block may use: max_attempts, or 1 with HARQ disabled.
  u32 attempt_budget() const { return enabled ? max_attempts : 1; }

  void validate() const {
    check(num_processes >= 1, "HarqConfig: need at least one HARQ process");
    check(max_attempts >= 1, "HarqConfig: need at least one attempt");
  }
};

/// Lifetime counters of one HARQ entity (all monotone; integers only, so
/// farm aggregates built from them round-trip shards exactly). This table is
/// their one list: it declares the members and generates the field-wise sum
/// and the snapshot fields, in table order.
#define TSIM_HARQ_STATS(X)                                                      \
  X(new_tx)                /* first transmissions (new transport blocks) */     \
  X(retx)                  /* retransmissions */                                \
  X(acks)                  /* blocks delivered (CRC pass) */                    \
  X(drops)                 /* blocks abandoned after the attempt budget */      \
  X(stalls)                /* slots where new data found no free process */     \
  X(timeouts)              /* in-flight attempts resolved as NACK by timeout */ \
  X(offered_bits)          /* bits of every new transport block */              \
  X(delivered_bits)        /* bits of ACKed blocks */                           \
  X(dropped_bits)          /* bits of dropped blocks */                         \
  X(soft_buffer_peak_bits) /* worst-case combined soft-buffer occupancy */

struct HarqStats {
  TSIM_HARQ_STATS(TSIM_U64_COUNTER)

  /// Field-wise sum. Summed soft-buffer peaks are the worst case if every
  /// entity peaked at once (an upper bound built from exact peaks).
  HarqStats& operator+=(const HarqStats& o) {
#define TSIM_HARQ_ADD(f) f += o.f;
    TSIM_HARQ_STATS(TSIM_HARQ_ADD)
#undef TSIM_HARQ_ADD
    return *this;
  }
  bool operator==(const HarqStats&) const = default;

  u64 transmissions() const { return new_tx + retx; }
  u64 finished() const { return acks + drops; }
  /// Residual block error rate after HARQ: blocks still lost at the MAC.
  double residual_bler() const {
    return finished() == 0
               ? 0.0
               : static_cast<double>(drops) / static_cast<double>(finished());
  }
  double retx_fraction() const {
    return transmissions() == 0
               ? 0.0
               : static_cast<double>(retx) / static_cast<double>(transmissions());
  }
};

class HarqEntity {
 public:
  explicit HarqEntity(const HarqConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
    processes_.resize(cfg_.num_processes);
  }

  /// Lowest-id process with a retransmission pending (NACKed, attempt budget
  /// left), or nullopt. Retransmissions take priority over new data.
  std::optional<u32> pending_retx() const {
    for (u32 p = 0; p < processes_.size(); ++p) {
      if (processes_[p].active && !processes_[p].in_flight &&
          processes_[p].attempts > 0)
        return p;
    }
    return std::nullopt;
  }

  /// Starts a new transport block of `bits` on the lowest-id free process and
  /// marks its first transmission in flight. Returns the process id, or
  /// nullopt (and counts a stall) when every process is busy - the
  /// all-processes-busy stall of a UE whose feedback is all NACKs. `tti`
  /// stamps the transmission slot (feedback timeout + stale-feedback guard).
  std::optional<u32> start_new_data(u64 bits, u64 tti = 0) {
    for (u32 p = 0; p < processes_.size(); ++p) {
      Process& proc = processes_[p];
      if (proc.active) continue;
      proc.active = true;
      proc.in_flight = true;
      proc.attempts = 1;
      proc.bits = bits;
      proc.sent_tti = tti;
      stats_.new_tx += 1;
      stats_.offered_bits += bits;
      note_occupancy();
      return p;
    }
    stats_.stalls += 1;
    return std::nullopt;
  }

  /// Marks process `p`'s pending retransmission in flight (transmission
  /// number attempts+1). Only valid for a process pending_retx() returned.
  u32 grant_retx(u32 p, u64 tti = 0) {
    Process& proc = process(p);
    check(proc.active && !proc.in_flight && proc.attempts > 0,
          "HarqEntity: grant_retx on a process with no pending retransmission");
    proc.attempts += 1;
    proc.in_flight = true;
    proc.sent_tti = tti;
    stats_.retx += 1;
    return proc.attempts;
  }

  /// Applies the CRC outcome of process `p`'s in-flight transmission.
  /// ACK frees the process (soft buffer released, bits delivered). NACK
  /// keeps the block for retransmission, or drops it - freeing the soft
  /// buffer and counting residual loss - when the attempt budget is spent.
  void on_feedback(u32 p, bool crc_pass) {
    Process& proc = process(p);
    check(proc.active && proc.in_flight,
          "HarqEntity: feedback for a process with nothing in flight");
    proc.in_flight = false;
    if (crc_pass) {
      stats_.acks += 1;
      stats_.delivered_bits += proc.bits;
      proc = Process{};  // soft buffer released
      return;
    }
    if (proc.attempts >= cfg_.attempt_budget()) {
      stats_.drops += 1;
      stats_.dropped_bits += proc.bits;
      proc = Process{};  // block abandoned: soft buffer released
      return;
    }
    // Block stays resident awaiting a retransmission grant.
  }

  /// Resolves every in-flight attempt whose CRC indication is overdue at
  /// `now_tti` as a NACK (lost or over-delayed FAPI feedback, sim/fault.h):
  /// the process follows the normal NACK path - retransmission if budget is
  /// left, drop otherwise - so lost feedback degrades throughput instead of
  /// wedging the process forever. No-op with feedback_timeout_slots == 0.
  /// Returns the number of attempts timed out.
  u32 expire_overdue(u64 now_tti) {
    if (cfg_.feedback_timeout_slots == 0) return 0;
    u32 expired = 0;
    for (u32 p = 0; p < processes_.size(); ++p) {
      const Process& proc = processes_[p];
      if (!proc.active || !proc.in_flight) continue;
      if (now_tti < proc.sent_tti + cfg_.feedback_timeout_slots) continue;
      stats_.timeouts += 1;
      on_feedback(p, /*crc_pass=*/false);
      ++expired;
    }
    return expired;
  }

  /// Transmission number (1-based) the next grant of process `p` would use;
  /// process must be active. Drives the Chase effective-SNR boost.
  u32 attempts(u32 p) const { return process(p).attempts; }
  bool active(u32 p) const { return process(p).active; }
  /// True while process `p` awaits CRC feedback for a transmission.
  bool in_flight(u32 p) const { return process(p).in_flight; }
  /// TTI of process `p`'s most recent transmission (stale-feedback guard:
  /// a delayed indication must only resolve the attempt it belongs to).
  u64 sent_tti(u32 p) const { return process(p).sent_tti; }

  /// Soft-buffer occupancy right now: one block-sized buffer per process
  /// holding a transport block (Chase combining accumulates in place).
  u64 soft_buffer_bits() const {
    u64 bits = 0;
    for (const Process& p : processes_)
      if (p.active) bits += p.bits;
    return bits;
  }

  /// True when no process can take new data.
  bool all_busy() const {
    for (const Process& p : processes_)
      if (!p.active) return false;
    return true;
  }

  /// Blocks still unresolved (active processes) - the farm flushes these
  /// out of the residual-BLER denominator at end of run.
  u32 unresolved() const {
    u32 n = 0;
    for (const Process& p : processes_) n += p.active ? 1 : 0;
    return n;
  }

  const HarqStats& stats() const { return stats_; }
  const HarqConfig& config() const { return cfg_; }

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Serializes every process slot (including in-flight attempts and their
  /// sent TTIs, so feedback timeouts resume exactly) plus the lifetime
  /// stats. The config is NOT serialized - restore_state requires an entity
  /// constructed with the same HarqConfig.
  void save_state(sim::SnapshotWriter& w) const {
    w.write_u64(processes_.size());
    for (const Process& p : processes_) {
      w.write_bool(p.active);
      w.write_bool(p.in_flight);
      w.write_u32(p.attempts);
      w.write_u64(p.bits);
      w.write_u64(p.sent_tti);
    }
#define TSIM_HARQ_SAVE(f) w.write_u64(stats_.f);
    TSIM_HARQ_STATS(TSIM_HARQ_SAVE)
#undef TSIM_HARQ_SAVE
  }
  void restore_state(sim::SnapshotReader& r) {
    if (r.read_u64() != processes_.size())
      r.fail("HARQ process count does not match this configuration");
    for (Process& p : processes_) {
      p.active = r.read_bool();
      p.in_flight = r.read_bool();
      p.attempts = r.read_u32();
      p.bits = r.read_u64();
      p.sent_tti = r.read_u64();
    }
#define TSIM_HARQ_LOAD(f) stats_.f = r.read_u64();
    TSIM_HARQ_STATS(TSIM_HARQ_LOAD)
#undef TSIM_HARQ_LOAD
  }

 private:
  struct Process {
    bool active = false;     // holds a transport block
    bool in_flight = false;  // transmitted this slot, awaiting CRC
    u32 attempts = 0;        // transmissions so far
    u64 bits = 0;
    u64 sent_tti = 0;        // TTI of the latest transmission
  };

  Process& process(u32 p) {
    check(p < processes_.size(), "HarqEntity: process id out of range");
    return processes_[p];
  }
  const Process& process(u32 p) const {
    check(p < processes_.size(), "HarqEntity: process id out of range");
    return processes_[p];
  }
  void note_occupancy() {
    stats_.soft_buffer_peak_bits =
        std::max(stats_.soft_buffer_peak_bits, soft_buffer_bits());
  }

  HarqConfig cfg_;
  std::vector<Process> processes_;
  HarqStats stats_;
};

}  // namespace tsim::mac
