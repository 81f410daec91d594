// One gNB cell of the farm: a persistent UE population (HARQ entities +
// on/off burst arrival state) closed-loop against the L1 slot engine.
//
// Per TTI the cell
//   1. builds a FAPI-style SlotRequest (build_request): retransmissions
//      first (lowest HARQ process id, UE order rotated per TTI for
//      fairness), then new data for UEs whose burst process is "on" and
//      whose arrival draw fires, packed symbol-major into the carrier grid
//      at sc_per_pdu subcarriers per PDU until capacity runs out;
//   2. expands the request into a ran::SlotWorkload (build_workload): one
//      Allocation per PDU, generated at the PDU's Chase-combined effective
//      SNR from an Rng stream keyed by (cell seed, tti, symbol, subcarrier)
//      - identity, not draw order, so any shard reproduces the same bits;
//   3. runs it on the cell's own ran::SlotScheduler cluster pool and folds
//      SlotResult::allocation_errors into a SlotIndication (run_slot);
//   4. feeds the CRC outcomes back into the UEs' HARQ processes
//      (apply_indication) - ACK frees the process, NACK retransmits at
//      boosted SNR or drops after the attempt budget.
//
// Retransmission modelling: a retransmission is a fresh realization of the
// block (bits, channel, noise) at the combined effective SNR. Chase
// combining is captured in the success statistics of each attempt, not by
// carrying soft values across slots through the bit-true detector.
//
// Everything the cell does is a deterministic function of (CellConfig,
// tti): burst transitions, arrivals and payloads use Rng::keyed streams and
// the scheduler's accounting is host-thread-invariant, so a cell simulated
// in any farm shard (or any host process) produces bit-identical reports.
#pragma once

#include <vector>

#include "mac/fapi.h"
#include "mac/harq.h"
#include "ran/deadline.h"
#include "ran/scheduler.h"
#include "ran/traffic.h"

namespace tsim::mac {

/// Per-UE on/off burst arrival process, layered on the slot engine's
/// Poisson path: while "on" a UE offers new data with arrival_prob per slot
/// (Bernoulli thinning - the aggregate arrival stream stays Poisson-like),
/// while "off" only pending retransmissions go out. State transitions form
/// a two-state Markov chain with the configured duty cycle and mean burst
/// length; an optional diurnal term modulates the on-rate over TTIs.
struct BurstConfig {
  bool enabled = false;        // false: every UE offers new data every slot
  double duty = 0.5;           // stationary fraction of slots a UE is on
  double mean_on_slots = 8.0;  // expected burst length (slots)
  double arrival_prob = 1.0;   // P(new transport block | on) per slot
  double diurnal_period_ttis = 0.0;  // 0 = no diurnal modulation
  double diurnal_depth = 0.0;  // fractional swing of the on-rate, in [0, 1]

  void validate() const;
  /// P(off -> on) at `tti`, including the diurnal modulation.
  double p_on(u64 tti) const;
  /// P(on -> off) per slot: 1 / mean burst length.
  double p_off() const { return 1.0 / mean_on_slots; }
};

struct CellConfig {
  u32 cell = 0;
  u64 farm_seed = 0xFA21;
  u32 num_ues = 64;     // persistent UEs; service class = ue % groups.size()
  u32 sc_per_pdu = 4;   // allocation width (subcarriers) of one PDU
  phy::CarrierConfig carrier;             // callers shrink this for soaks
  std::vector<ran::UeGroup> groups;       // service classes (geometry/QAM/SNR)
  HarqConfig harq;
  BurstConfig burst;
  ran::ClusterPoolConfig pool;
  double clock_hz = 1e9;
  /// Farm-level fault plan (sim/fault.h). When enabled it is re-seeded per
  /// cell (cell_fault_seed) and installed into the cell's cluster pool, so
  /// every cell draws independent fault streams from one farm-level knob;
  /// FAPI indication faults are drawn from the same per-cell seed.
  sim::FaultConfig fault;

  void validate() const;
  /// The cell's deterministic seed: keyed by (farm_seed, cell) only, so a
  /// farm shard reconstructs it from the shared config without coordination.
  u64 cell_seed() const;
};

/// How FarmResult::total() merges a CellReport column across cells.
enum class ColumnMerge : u8 {
  kNone = 0,  // identity, not a count (the cell id stays 0 in the total)
  kSum,
  kMax,       // cells run concurrently: farm timing is the worst cell's
};

/// The columns of a CellReport, in wire order: the one list of its fields.
/// C(type, name, merge) is a CellReport member; H(wire, member) is the
/// summed counter harq.member, sent as column `wire`. The table declares the
/// members and generates FarmResult::total() and the wire codec
/// (cell_report_header/row/from_row, mac/farm.h), so a new column is one
/// entry here plus the line in Cell::report() that produces it.
#define TSIM_CELL_REPORT_COLUMNS(C, H)                                                \
  C(u32, cell, kNone)                                                                 \
  C(u32, ues, kSum)                                                                   \
  C(u32, ttis, kMax)                                                                  \
  C(u64, pdus, kSum)           /* PDUs carried to L1 (= harq.transmissions()) */      \
  H(new_tx, new_tx)                                                                   \
  H(retx, retx)                                                                       \
  H(acks, acks)                                                                       \
  H(drops, drops)                                                                     \
  H(stalls, stalls)                                                                   \
  C(u64, crc_fail, kSum)       /* transmissions whose CRC failed */                   \
  H(offered_bits, offered_bits)                                                       \
  H(delivered_bits, delivered_bits)                                                   \
  H(dropped_bits, dropped_bits)                                                       \
  H(soft_peak_bits, soft_buffer_peak_bits)                                            \
  C(u64, unresolved, kSum)     /* blocks awaiting feedback at end of run */           \
  C(u64, bits, kSum)           /* detector payload bits over all slots */             \
  C(u64, errors, kSum)         /* detector bit errors over all slots */               \
  C(u64, slots, kSum)          /* slots processed (== ttis) */                        \
  C(u64, misses, kSum)         /* slots over the TTI deadline */                      \
  C(u64, worst_cycles, kMax)                                                          \
  C(u64, p50_cycles, kMax)     /* max over the cells' percentiles */                  \
  C(u64, p99_cycles, kMax)                                                            \
  C(u64, reloads, kSum)                                                               \
  C(u64, reload_cycles, kSum)                                                         \
  H(timeouts, timeouts)                                                               \
  /* Fault-injection outcome (all zero with faults off). */                           \
  C(u64, dropped_ind, kSum)    /* FAPI SlotIndications lost */                        \
  C(u64, delayed_ind, kSum)    /* FAPI SlotIndications delivered late */              \
  C(u64, degraded_slots, kSum) /* slots run degraded (dead cluster / failed batch) */ \
  C(u64, hart_faults, kSum)    /* injected ISS hart faults that fired */              \
  C(u64, ecc_corrected, kSum)  /* SECDED single-bit L1 upsets scrubbed */             \
  C(u64, ecc_detected, kSum)   /* double-bit L1 upsets detected (corrupting) */       \
  C(u64, ecc_silent, kSum)     /* ECC-off L1 upsets (silent corruption) */

/// Integer-only per-cell aggregate. Every field is an exact count (or cycle
/// total), so a report serialized through the farm's JSON pipe round-trips
/// bit-identically - the derived rates live in accessors, not fields.
struct CellReport {
#define TSIM_CELL_REPORT_MEMBER(type, name, merge) type name = 0;
#define TSIM_CELL_REPORT_SKIP(wire, member)
  TSIM_CELL_REPORT_COLUMNS(TSIM_CELL_REPORT_MEMBER, TSIM_CELL_REPORT_SKIP)
#undef TSIM_CELL_REPORT_MEMBER
#undef TSIM_CELL_REPORT_SKIP
  HarqStats harq;  // summed over the cell's UEs

  double residual_bler() const { return harq.residual_bler(); }
  double retx_fraction() const { return harq.retx_fraction(); }
  double crc_fail_fraction() const {
    return pdus == 0 ? 0.0
                     : static_cast<double>(crc_fail) / static_cast<double>(pdus);
  }
  /// Delivered MAC throughput over the simulated wall time, in Mb/s.
  double delivered_mbps(double tti_seconds) const {
    return ttis == 0 ? 0.0
                     : static_cast<double>(harq.delivered_bits) /
                           (static_cast<double>(ttis) * tti_seconds) / 1e6;
  }

  bool operator==(const CellReport&) const = default;
};

class Cell {
 public:
  explicit Cell(const CellConfig& cfg);

  /// MAC scheduling decision for `tti` (mutates HARQ/burst state: grants
  /// mark transmissions in flight).
  SlotRequest build_request(u64 tti);
  /// Expands a request into the L1 workload (pure; keyed RNG streams).
  ran::SlotWorkload build_workload(const SlotRequest& req) const;
  /// Runs the workload on the cell's cluster pool and builds the CRC
  /// indication from the per-allocation outcomes.
  SlotIndication run_slot(const SlotRequest& req);
  /// Feeds CRC outcomes back into the UEs' HARQ processes.
  void apply_indication(const SlotIndication& ind);

  /// One full closed-loop TTI: request -> workload -> L1 -> indication ->
  /// HARQ feedback.
  void step(u64 tti);

  CellReport report() const;
  /// Slim per-slot results (detected bits stripped) for AggregateReport.
  const std::vector<ran::SlotResult>& slot_results() const { return results_; }
  const CellConfig& config() const { return cfg_; }
  /// TTIs stepped so far == the TTI the next step() call should receive.
  u32 ttis_run() const { return ttis_run_; }

  // ---- fast-forward observability (pool.fast_forward) ----
  /// Quiescent TTIs skipped wholesale by step()'s fast path (always 0 with
  /// fast_forward off). Purely observational: the archived per-slot state of
  /// a skipped TTI is bit-identical to the cycle-by-cycle path.
  u64 ff_idle_ttis() const { return ff_idle_ttis_; }
  /// Batch shrink statistics from the cell's scheduler.
  ran::SlotScheduler::FastForwardStats ff_batch_stats() const {
    return scheduler_.fast_forward_stats();
  }

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Identity of the configuration a snapshot belongs to (FNV-1a over every
  /// parameter that shapes the trajectory). restore_state refuses a payload
  /// captured under a different fingerprint, so a snapshot from another
  /// seed/carrier/fault plan fails loudly instead of restoring wrong.
  u64 config_fingerprint() const;
  /// Serializes the cell's complete closed-loop state at a TTI boundary:
  /// UE populations (burst state + HARQ processes/soft-buffer bookkeeping,
  /// in-flight attempts and their feedback timers included), fault-delayed
  /// indications, the per-slot result history the report percentiles read,
  /// the cumulative counters, and the scheduler (per cluster: program
  /// residency and L1). Traffic/arrival/payload RNG streams are keyed by
  /// identity (seed, tti, ue, ...) and carry no position - restore
  /// re-derives them exactly, so nothing RNG-shaped is serialized.
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores into a freshly constructed Cell of the same configuration.
  /// Stepping the restored cell from ttis_run() onward is bit-identical to
  /// the uninterrupted run (tests/snapshot_test.cpp pins this byte-for-
  /// byte). Throws sim::SnapshotError on any mismatch or corruption.
  void restore_state(sim::SnapshotReader& r);

 private:
  struct Ue {
    u32 group = 0;
    bool on = true;        // burst state (always true when bursts disabled)
    HarqEntity harq;
    explicit Ue(u32 g, const HarqConfig& h) : group(g), harq(h) {}
  };

  /// Payload bits of one PDU of UE `ue` (sc_per_pdu problems x ntx layers x
  /// bits/symbol of the UE's constellation).
  u64 pdu_bits(u32 ue) const;
  /// Advances every UE's on/off Markov chain to `tti`. Guarded so the
  /// transition applies exactly once per TTI (the fast-forward quiescence
  /// probe and build_request may both ask for the same TTI): the chain draw
  /// is keyed by (seed, tti, ue) but the state update is not idempotent.
  void update_burst_states(u64 tti);
  /// True when this TTI provably builds an empty request with zero side
  /// effects: every UE off (after this TTI's burst transitions), no pending
  /// retransmission, nothing in flight awaiting feedback, no fault-delayed
  /// indication queued and no indication faults configured.
  bool quiescent() const;

  CellConfig cfg_;
  u64 seed_ = 0;  // cell_seed(), cached
  /// cfg_.fault re-seeded with the per-cell fault seed (drives the FAPI
  /// indication draws; the pool carries its own copy).
  sim::FaultConfig fault_;
  std::vector<Ue> ues_;
  std::vector<phy::Channel> channels_;   // one per group
  std::vector<phy::QamModulator> mods_;  // one per group
  ran::SlotScheduler scheduler_;
  std::vector<ran::SlotResult> results_;
  /// Indications delayed by the fault plan, awaiting their delivery TTI
  /// (flushed in insertion order at the start of each step).
  struct DelayedInd {
    u64 due_tti = 0;
    SlotIndication ind;
  };
  std::vector<DelayedInd> delayed_;
  u64 crc_fail_ = 0;
  u64 dropped_ind_ = 0;
  u64 delayed_ind_ = 0;
  u32 ttis_run_ = 0;
  /// Last TTI whose burst transitions were applied (update_burst_states
  /// guard). Not serialized: snapshots land on TTI boundaries, so the
  /// restored default never matches the next TTI stepped.
  u64 last_burst_tti_ = ~0ull;
  u64 ff_idle_ttis_ = 0;  // quiescent TTIs short-circuited by step()
};

}  // namespace tsim::mac
