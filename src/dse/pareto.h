// Pareto-front extraction over sweep results (pareto.{h,cpp}): the paper's
// exploration deliverable is not a single winner but the set of
// non-dominated (cost, quality) trade-offs - e.g. "1024 cores at 16 bit
// meet the deadline with BER x; 512 cores only at 8 bit with BER y".
//
// Objectives are configurable; every objective is minimized. A point
// dominates another when it is no worse in every objective and strictly
// better in at least one; the front is the set of non-dominated points,
// reported in enumeration order (deterministic).
#pragma once

#include <string>
#include <vector>

#include "dse/sweep.h"
#include "sim/report.h"

namespace tsim::dse {

/// Sweep metrics a front can optimize over. All are minimized; kCores is
/// the modeled hardware cost proxy, kLatency the worst-slot critical path,
/// kBer the DUT detection error rate, kReloadCycles the program-switch
/// overhead the assignment policy paid.
enum class Objective : u8 { kCores, kLatency, kBer, kReloadCycles };

constexpr const char* name_of(Objective o) {
  switch (o) {
    case Objective::kCores: return "cores";
    case Objective::kLatency: return "latency";
    case Objective::kBer: return "ber";
    case Objective::kReloadCycles: return "reloads";
  }
  return "?";
}

/// Parses "cores" / "latency" / "ber" / "reloads"; throws SimError otherwise.
Objective parse_objective(const std::string& name);

/// Parses a comma-separated objective list, e.g. "cores,latency,ber".
std::vector<Objective> parse_objectives(const std::string& list);

/// The default exploration trade-off: hardware cost vs worst-slot latency
/// vs detection quality.
inline std::vector<Objective> default_objectives() {
  return {Objective::kCores, Objective::kLatency, Objective::kBer};
}

/// The (minimized) value of `m` under one objective.
double objective_value(const PointMetrics& m, Objective o);

/// True when `a` dominates `b` under `objectives` (no worse everywhere,
/// strictly better somewhere).
bool dominates(const PointMetrics& a, const PointMetrics& b,
               const std::vector<Objective>& objectives);

/// Indices (into `points`, ascending) of the non-dominated set.
std::vector<u32> pareto_front(const std::vector<PointMetrics>& points,
                              const std::vector<Objective>& objectives);

/// One row per evaluated point - axes, metrics, and a `front` marker column
/// ("1" = on the front) - in enumeration order. This is the single schema
/// behind the human table, the CSV, and the JSON trajectory rows; dse_test
/// pins its keys and tests/golden/dse_quick.json the quick sweep's rows.
sim::Table sweep_table(const SweepResult& result, const std::vector<u32>& front);

/// The front rows only (same columns), for compact reporting.
sim::Table front_table(const SweepResult& result, const std::vector<u32>& front);

}  // namespace tsim::dse
