// TTI deadline accounting (paper Sec. II: "the BS processes a Transmission
// Time Interval (TTI) with 14 OFDM-symbols in < 1 ms"; at mu = 1 numerology
// one slot is 0.5 ms).
//
// The scheduler reports work in simulated DUT cycles; this header converts
// those to wall-clock latency at a configurable cluster frequency, checks the
// slot deadline, and renders the per-TTI summary (latency, margin, throughput
// in Mb/s, per-cluster utilization) as a sim::Table.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "phy/ofdm.h"
#include "ran/scheduler.h"
#include "sim/report.h"

namespace tsim::ran {

/// Latency of one processed slot at a given DUT clock.
struct SlotTiming {
  u64 slot_cycles = 0;      // critical-path cycles (max over clusters)
  double clock_hz = 1e9;    // assumed cluster frequency
  double tti_seconds = 5e-4;

  double latency_seconds() const {
    return static_cast<double>(slot_cycles) / clock_hz;
  }
  bool meets_deadline() const { return latency_seconds() <= tti_seconds; }
  /// Positive = headroom, negative = overrun.
  double margin_seconds() const { return tti_seconds - latency_seconds(); }
  /// Fraction of the TTI left over (1 = idle, 0 = exactly at the deadline).
  double margin_fraction() const { return margin_seconds() / tti_seconds; }
};

inline SlotTiming slot_timing(const SlotResult& result,
                              const phy::CarrierConfig& carrier,
                              double clock_hz = 1e9) {
  SlotTiming t;
  t.slot_cycles = result.slot_cycles;
  t.clock_hz = clock_hz;
  t.tti_seconds = carrier.numerology.slot_seconds();
  return t;
}

/// Payload bits over an interval, in Mb/s.
inline double throughput_mbps(u64 bits, double seconds) {
  return seconds <= 0.0 ? 0.0 : static_cast<double>(bits) / seconds / 1e6;
}

/// Aggregated per-TTI verdict: deadline timing plus the program-reload
/// overhead the batch-to-cluster assignment paid (see scheduler.h).
/// Reloads and busy cycles are summed across all clusters - clusters reload
/// in parallel, so only a slice of reload_cycles sits on the (max-based)
/// critical path. reload_fraction() therefore reports reload cycles as a
/// share of total cluster busy time - the number the locality policy
/// exists to shrink.
struct DeadlineReport {
  SlotTiming timing;
  u64 reloads = 0;          // program switches across all clusters
  u64 reload_cycles = 0;    // modeled DMA cycles of those switches
  u64 busy_cycles = 0;      // total cluster busy cycles (reloads included)
  bool degraded = false;    // slot ran around dead clusters / failed batches
  u32 dead_clusters = 0;    // clusters dead this TTI (fault plan)
  bool met() const { return timing.meets_deadline(); }
  double reload_fraction() const {
    return busy_cycles == 0 ? 0.0
                            : static_cast<double>(reload_cycles) /
                                  static_cast<double>(busy_cycles);
  }
};

inline DeadlineReport deadline_report(const SlotResult& result,
                                      const phy::CarrierConfig& carrier,
                                      double clock_hz = 1e9) {
  DeadlineReport rep;
  rep.timing = slot_timing(result, carrier, clock_hz);
  rep.reloads = result.total_reloads;
  rep.reload_cycles = result.total_reload_cycles;
  for (const u64 busy : result.cluster_busy_cycles) rep.busy_cycles += busy;
  rep.degraded = result.degraded;
  rep.dead_clusters = static_cast<u32>(result.dead_clusters.size());
  return rep;
}

/// Multi-slot aggregation: deadline misses, latency percentiles and reload
/// totals over a run of processed slots (a soak, one farm cell, a sweep
/// point). Percentiles are nearest-rank over the exact integer slot-cycle
/// counts, so aggregates are bit-identical wherever the slots were computed
/// (any host thread count, any farm shard).
struct AggregateReport {
  u64 slots = 0;
  u64 misses = 0;          // slots whose latency exceeded the TTI deadline
  u64 reloads = 0;         // program switches, summed over slots
  u64 reload_cycles = 0;   // modeled DMA cycles of those switches
  u64 worst_cycles = 0;    // worst slot critical path
  u64 p50_cycles = 0;      // nearest-rank median slot critical path
  u64 p99_cycles = 0;      // nearest-rank 99th-percentile slot critical path
  u64 total_bits = 0;      // payload bits over all slots
  u64 total_errors = 0;    // hard-decision bit errors over all slots
  // Fault-injection outcome over the run (all zero with faults off).
  u64 degraded_slots = 0;  // slots that ran degraded (dead cluster / failed batch)
  TSIM_SLOT_FAULT_COUNTERS(TSIM_U64_COUNTER)  // summed over the slots
  double clock_hz = 1e9;
  double tti_seconds = 5e-4;

  double worst_latency_seconds() const { return worst_cycles / clock_hz; }
  double p50_latency_seconds() const { return p50_cycles / clock_hz; }
  double p99_latency_seconds() const { return p99_cycles / clock_hz; }
  double miss_fraction() const {
    return slots == 0 ? 0.0
                      : static_cast<double>(misses) / static_cast<double>(slots);
  }
  double ber() const {
    return total_bits == 0 ? 0.0
                           : static_cast<double>(total_errors) /
                                 static_cast<double>(total_bits);
  }
};

/// Nearest-rank percentile of a non-empty sorted sample: the smallest value
/// whose rank covers fraction `q` of the sample (q in (0, 1]).
inline u64 nearest_rank(const std::vector<u64>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline AggregateReport aggregate_report(const std::vector<SlotResult>& results,
                                        const phy::CarrierConfig& carrier,
                                        double clock_hz = 1e9) {
  AggregateReport agg;
  agg.clock_hz = clock_hz;
  agg.tti_seconds = carrier.numerology.slot_seconds();
  agg.slots = results.size();
  std::vector<u64> cycles;
  cycles.reserve(results.size());
  for (const SlotResult& r : results) {
    cycles.push_back(r.slot_cycles);
    agg.worst_cycles = std::max(agg.worst_cycles, r.slot_cycles);
    agg.reloads += r.total_reloads;
    agg.reload_cycles += r.total_reload_cycles;
    agg.total_bits += r.bits;
    agg.total_errors += r.errors;
    if (r.degraded) ++agg.degraded_slots;
#define TSIM_ADD_SLOT_FAULTS(f) agg.f += r.f;
    TSIM_SLOT_FAULT_COUNTERS(TSIM_ADD_SLOT_FAULTS)
#undef TSIM_ADD_SLOT_FAULTS
    if (static_cast<double>(r.slot_cycles) / clock_hz > agg.tti_seconds)
      ++agg.misses;
  }
  std::sort(cycles.begin(), cycles.end());
  agg.p50_cycles = nearest_rank(cycles, 0.50);
  agg.p99_cycles = nearest_rank(cycles, 0.99);
  return agg;
}

/// Fraction of the slot's critical path during which cluster `c` was busy.
/// The critical path is the symbol-serialized sum (see SlotResult), so with
/// imbalanced symbol work even the busiest cluster can sit below 1.0.
inline double cluster_utilization(const SlotResult& result, u32 c) {
  if (result.slot_cycles == 0) return 0.0;
  return static_cast<double>(result.cluster_busy_cycles[c]) /
         static_cast<double>(result.slot_cycles);
}

/// One row per TTI: latency vs deadline, throughput, BER, reload overhead.
inline sim::Table slot_report_header() {
  return sim::Table({"tti", "problems", "bits", "ber", "latency_us", "deadline_us",
                     "margin_%", "met", "offered_mbps", "processed_mbps",
                     "reloads", "reload_%"});
}

inline void add_slot_row(sim::Table& table, const SlotResult& result,
                         const SlotTiming& timing) {
  // Reload share of total cluster busy time (parallel clusters reload in
  // parallel, so dividing by the max-based critical path would overstate).
  u64 busy_total = 0;
  for (const u64 busy : result.cluster_busy_cycles) busy_total += busy;
  const double reload_frac =
      busy_total == 0 ? 0.0
                      : static_cast<double>(result.total_reload_cycles) /
                            static_cast<double>(busy_total);
  table.add_row({
      sim::strf("%llu", static_cast<unsigned long long>(result.tti)),
      sim::strf("%llu", static_cast<unsigned long long>(result.problems)),
      sim::strf("%llu", static_cast<unsigned long long>(result.bits)),
      sim::strf("%.3g", result.ber()),
      sim::strf("%.1f", timing.latency_seconds() * 1e6),
      sim::strf("%.1f", timing.tti_seconds * 1e6),
      sim::strf("%+.1f", timing.margin_fraction() * 100.0),
      timing.meets_deadline() ? "yes" : "NO",
      sim::strf("%.1f", throughput_mbps(result.bits, timing.tti_seconds)),
      sim::strf("%.1f", throughput_mbps(result.bits, timing.latency_seconds())),
      sim::strf("%llu", static_cast<unsigned long long>(result.total_reloads)),
      sim::strf("%.2f", reload_frac * 100.0),
  });
}

/// One row per cluster: batches run, program reloads, busy cycles (reload
/// cycles included and also broken out), utilization.
inline sim::Table cluster_report(const SlotResult& result) {
  sim::Table table({"cluster", "batches", "reloads", "reload_cycles",
                    "busy_cycles", "utilization_%"});
  for (u32 c = 0; c < result.cluster_busy_cycles.size(); ++c) {
    table.add_row({
        sim::strf("%u", c),
        sim::strf("%u", result.cluster_batches[c]),
        sim::strf("%u", result.cluster_reloads[c]),
        sim::strf("%llu",
                  static_cast<unsigned long long>(result.cluster_reload_cycles[c])),
        sim::strf("%llu",
                  static_cast<unsigned long long>(result.cluster_busy_cycles[c])),
        sim::strf("%.1f", cluster_utilization(result, c) * 100.0),
    });
  }
  return table;
}

/// One row per OFDM symbol: critical-path cycles and latency share.
inline sim::Table symbol_report(const SlotResult& result, const SlotTiming& timing) {
  sim::Table table({"symbol", "cycles", "latency_us"});
  for (u32 s = 0; s < result.symbol_cycles.size(); ++s) {
    table.add_row({
        sim::strf("%u", s),
        sim::strf("%llu", static_cast<unsigned long long>(result.symbol_cycles[s])),
        sim::strf("%.2f", static_cast<double>(result.symbol_cycles[s]) /
                              timing.clock_hz * 1e6),
    });
  }
  return table;
}

}  // namespace tsim::ran
