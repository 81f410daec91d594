// Sweep engine: evaluates every point of a DesignSpace end-to-end through
// the existing stack - ran::TrafficGenerator slot generation ->
// ran::SlotScheduler batch dispatch on emulated iss::Machine clusters ->
// deadline accounting - and records per-point metrics for Pareto extraction
// (pareto.h).
//
// Determinism: the traffic workload depends only on TrafficConfig::seed, and
// every SlotScheduler metric (cycles, reloads, detections, instructions) is
// deterministic regardless of SweepConfig::host_threads (see scheduler.h).
// The only nondeterministic fields of PointMetrics are wall_seconds and the
// simulated-MIPS rate derived from it; everything else is bit-stable across
// runs and host thread counts, which dse_test pins.
#pragma once

#include <string>
#include <vector>

#include "dse/space.h"
#include "phy/ofdm.h"
#include "ran/traffic.h"

namespace tsim::dse {

/// Workload and evaluation parameters shared by every point of one sweep.
struct SweepConfig {
  ran::TrafficConfig traffic;   // carrier, UE groups, arrivals, seed
  u32 ttis = 1;                 // slots evaluated per point
  double clock_hz = 1e9;        // assumed DUT clock for latency conversion
  u32 host_threads = 1;         // scheduler pool threads (host-side only)
  u32 threads_per_cluster = 1;  // must be 1 (see ClusterPoolConfig)
  bool golden_ber = true;       // also run the double-precision reference
  /// Reuse warmed-up scheduler state across sibling points. Points sharing a
  /// SlotScheduler::warm_key (cluster shape, latencies, precision,
  /// problems/core, UE-group geometry) hand the first sibling's translated
  /// kernel programs and locality calibration to the rest instead of
  /// rebuilding and re-measuring them per point. Construction-only shortcut:
  /// every PointMetrics field except wall_seconds stays bit-identical to a
  /// cold sweep (pinned by fastforward_test).
  bool warm_start = false;
};

/// Everything measured for one feasible design point. Counters aggregate
/// over all swept TTIs; deadline fields report the *worst* slot, since the
/// paper's real-time question is "does every TTI fit in 0.5 ms".
struct PointMetrics {
  DesignPoint point;
  u32 batch_cores = 0;        // cores per batch after the L1 fit (common
                              // across all geometries, see SlotScheduler)
  u64 problems = 0;           // subcarrier detections over all TTIs
  u64 bits = 0;               // payload bits over all TTIs
  u64 errors = 0;             // DUT hard-decision bit errors
  u64 golden_errors = 0;      // golden-model bit errors on the same slots
  u64 instructions = 0;       // retired DUT instructions over all TTIs
  u64 slot_cycles = 0;        // worst per-TTI critical path (DUT cycles)
  u64 worst_slot_bits = 0;    // payload bits of the slot that set slot_cycles
  u64 reloads = 0;            // program switches over all TTIs
  u64 reload_cycles = 0;      // modeled DMA cycles of those switches
  u64 busy_cycles = 0;        // total cluster busy cycles over all TTIs
  double deadline_seconds = 0.0;
  double wall_seconds = 0.0;  // host time for the point (nondeterministic)

  double latency_seconds(double clock_hz) const {
    return static_cast<double>(slot_cycles) / clock_hz;
  }
  bool deadline_met(double clock_hz) const {
    return latency_seconds(clock_hz) <= deadline_seconds;
  }
  /// Positive = headroom of the worst slot, negative = overrun.
  double margin_fraction(double clock_hz) const {
    return (deadline_seconds - latency_seconds(clock_hz)) / deadline_seconds;
  }
  double dut_ber() const {
    return bits == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(bits);
  }
  double golden_ber() const {
    return bits == 0 ? 0.0
                     : static_cast<double>(golden_errors) / static_cast<double>(bits);
  }
  double reload_fraction() const {
    return busy_cycles == 0 ? 0.0
                            : static_cast<double>(reload_cycles) /
                                  static_cast<double>(busy_cycles);
  }
  /// Processed throughput of the worst slot: its own payload bits over its
  /// own latency (not an average across slots).
  double throughput_mbps(double clock_hz) const {
    const double lat = latency_seconds(clock_hz);
    return lat <= 0.0 ? 0.0 : static_cast<double>(worst_slot_bits) / lat / 1e6;
  }
  /// Host-side emulation rate (nondeterministic; 0 when wall time is 0).
  double sim_mips() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(instructions) / wall_seconds / 1e6;
  }
};

/// A point the sweep could not evaluate (e.g. the batch layout overflows the
/// cluster's L1 at that precision/problems-per-core), with the reason.
struct SkippedPoint {
  DesignPoint point;
  std::string reason;
};

struct SweepResult {
  SweepConfig config;
  std::vector<PointMetrics> points;   // feasible points, enumeration order
  std::vector<SkippedPoint> skipped;  // infeasible points, enumeration order
};

/// Evaluates every point of `space` on the workload described by `cfg`.
/// Infeasible points land in SweepResult::skipped instead of aborting the
/// sweep. Throws SimError only for configuration errors that invalidate the
/// whole sweep (bad traffic config, empty space).
SweepResult run_sweep(const DesignSpace& space, const SweepConfig& cfg);

/// Golden-model reference: double-precision MMSE detection of every problem
/// in `slot`, hard-decision bit errors vs the transmitted bits.
u64 golden_slot_errors(const ran::SlotWorkload& slot,
                       const std::vector<ran::UeGroup>& groups);

}  // namespace tsim::dse
