// Multi-cluster slot scheduler: packs a SlotWorkload's subcarrier problems
// into cluster-sized batches and runs them on a pool of emulated TeraPool
// clusters (iss::Machine instances), one host task per cluster: up to
// host_threads workers each claim a whole cluster and run its batch queue.
//
// Batch-to-cluster assignment
// ---------------------------
// Two policies, selected by ClusterPoolConfig::policy:
//
//  - kRoundRobin: batch i runs on cluster i % num_clusters, in batch order.
//    The legacy policy; geometry-oblivious, so consecutive batches on a
//    cluster ping-pong between UE geometries and pay a program reload on
//    nearly every switch.
//  - kLocality (default): a geometry-packed, residency-aware assignment.
//    Per OFDM symbol, batches are grouped by geometry; groups are placed
//    largest-first onto clusters, preferring the cluster whose resident
//    program already matches, filling a cluster up to an even per-symbol
//    load share (calibrated batch cycles + modeled reload cycles) before
//    spilling the rest of the group to the next cluster, ties broken by
//    batch index then cluster id. Within each symbol a cluster's runs are
//    rotated so the run matching its incoming resident program goes first
//    (within-symbol order is free - symbols serialize, batches within one
//    don't). Same-geometry batches therefore land consecutively on the same
//    cluster and a cluster tends to keep its geometry from one symbol (and
//    one slot) to the next.
//
// Determinism: both assignments are computed *serially, up front*, from the
// workload, the per-geometry calibration (itself a deterministic single-
// threaded run; replaced by unit costs when only one cluster or one
// geometry exists, where measured costs cannot change an assignment), and
// the clusters' resident programs - never from host timing. Host threads
// only decide *which worker* runs a cluster: a worker claims the next
// cluster from a shared counter and runs that cluster's whole queue in the
// precomputed order through the deterministic Machine::run(). Residency
// transitions, reload counts, per-cluster cycle accounting and every report
// are therefore bit-identical for every host_threads value. A failing batch
// stops only its own cluster's queue; run_slot rethrows the lowest-index
// failing cluster's error after all workers join.
//
// Program reloads are explicit in the accounting: every geometry switch on a
// cluster is counted in BatchTrace::reloads and charged
// BatchTrace::reload_cycles (the modeled DMA cost of pulling the image into
// L2, see program_reload_cycles), which flow into the per-cluster busy
// cycles and the per-symbol critical path. Host-side, switches are nearly
// free: each iss::Machine keeps every geometry's program resident
// (translation cache + image, see machine.h), so a switch is an image
// restore, not a retranslation.
//
// Fast-forward (ClusterPoolConfig::fast_forward)
// ----------------------------------------------
// A partially filled batch normally pads its unused problem slots with
// duplicates and runs the FULL layout width - every core retires the whole
// kernel even when its results are never read. With fast_forward enabled,
// run_batch instead executes a shrunk program variant that parks the
// all-padding cores in wfi from crt0 (the same parking path shrunk
// batch_cores configs use), quantized to a power-of-two core count with a
// floor of kMinFastForwardCores. The variant is built with the FULL
// layout's addressing constants and only overrides the park threshold and
// barrier count (MmseLayout::active_cores), so its program text is
// word-for-word the full program's apart from those two equal-length
// immediates - a num_cores-derived constant crossing an li-expansion
// boundary can therefore never skew the variant's timing. The kernel
// streams are data-independent (compile-time-bounded loops, static-latency
// FP/memory timing), so every active core reaches the fork-join barrier at
// the same modeled cycle regardless of the core count, the last active
// arrival replays the full run's waker tail exactly, and parked harts
// resume below it; the machine's estimated_cycles - and with it every
// report field - is invariant under the shrink. Only host work changes: the variant swap is
// an image restore charged to NO reload accounting (reloads stay keyed on
// geometry transitions - the modeled DUT always runs the full-width
// program), and BatchTrace::instructions reports the instructions the host
// actually retired, which IS smaller under the shrink. That counter feeds
// no report or JSON surface (CellReport/AggregateReport are cycle- and
// count-based); the bit-exactness contract - fast-forwarded runs produce
// byte-identical reports to cycle-by-cycle runs - is pinned by
// tests/fastforward_test.cpp and the CI fastforward-smoke step. The shrink
// decision is a pure function of task.count, so it is deterministic across
// shards, host threads, and policies; it is disabled under a fault plan
// (fault draws are parameterized by the full hart count).
#pragma once

#include <memory>
#include <vector>

#include "iss/machine.h"
#include "kernels/layout.h"
#include "kernels/mmse_program.h"
#include "phy/qam.h"
#include "ran/traffic.h"
#include "rvasm/program.h"
#include "sim/fault.h"
#include "tera/dma.h"

namespace tsim::ran {

/// Batch-to-cluster assignment policy (see the header comment).
enum class AssignPolicy : u8 {
  kRoundRobin = 0,  // batch i -> cluster i % num_clusters
  kLocality,        // geometry-packed, residency-aware (default)
};

inline const char* policy_name(AssignPolicy p) {
  return p == AssignPolicy::kRoundRobin ? "roundrobin" : "locality";
}

/// Parses "roundrobin" / "locality"; throws SimError on anything else.
AssignPolicy parse_policy(const std::string& name);

/// Modeled DUT cycles to DMA a program image of `image_bytes` into L2
/// (descriptor setup + bus beats; same first-order model as tera::Dma).
inline u64 program_reload_cycles(u32 image_bytes, const tera::DmaConfig& dma = {}) {
  return dma.setup_cycles +
         (image_bytes + dma.bus_bytes_per_cycle - 1) / dma.bus_bytes_per_cycle;
}

struct ClusterPoolConfig {
  u32 num_clusters = 2;        // emulated DUT clusters processing in parallel
  u32 host_threads = 2;        // host worker threads (at most one per cluster)
  /// Must be 1: intra-cluster host threading was removed, and validate()
  /// rejects anything else. Kept only until perfbench stops copying it.
  u32 threads_per_cluster = 1;
  tera::TeraPoolConfig cluster = tera::TeraPoolConfig::tiny();
  kern::Precision prec = kern::Precision::k16CDotp;
  u32 problems_per_core = 4;
  u32 batch_cores = 0;         // 0 = as many cores as fit in L1
  AssignPolicy policy = AssignPolicy::kLocality;
  /// Event-driven fast-forward: partially filled batches run a shrunk
  /// program variant that parks the all-padding cores instead of computing
  /// results nobody reads (see the header note). Bit-exact: every report
  /// field is byte-identical to the cycle-by-cycle run. Off by default;
  /// ignored while a fault plan is enabled.
  bool fast_forward = false;
  /// Deterministic fault plan (sim/fault.h). Disabled by default: every
  /// fault hook below then costs one cold branch per batch run.
  sim::FaultConfig fault;

  void validate() const;
};

/// Fault-injection outcome of a batch run (all zero on clean runs). Each
/// counter keeps its name from BatchTrace through SlotResult,
/// AggregateReport and mac::CellReport; this list declares the members and
/// generates the per-slot and per-run sums.
#define TSIM_BATCH_FAULT_COUNTERS(X)                                     \
  X(hart_faults)    /* injected ISS hart faults that fired */            \
  X(ecc_corrected)  /* SECDED single-bit L1 upsets scrubbed */           \
  X(ecc_detected)   /* double-bit L1 upsets detected (word corrupted) */ \
  X(ecc_silent)     /* ECC-off L1 upsets (silent corruption) */

/// The slot fault counters, in SlotResult and Cell snapshot order.
#define TSIM_SLOT_FAULT_COUNTERS(X)                                             \
  X(failed_batches) /* batch runs that did not complete (BatchTrace::failed) */ \
  TSIM_BATCH_FAULT_COUNTERS(X)

/// One batch execution record, in deterministic batch order.
struct BatchTrace {
  u32 cluster = 0;        // cluster that ran the batch
  u32 allocation = 0;     // index into SlotWorkload::allocations
  u32 offset = 0;         // first problem of the allocation in this batch
  u32 count = 0;          // problems detected (padding excluded)
  u32 geometry = 0;       // geometry index the batch ran under
  u32 reloads = 0;        // program switches this batch forced (0 or 1)
  u64 reload_cycles = 0;  // modeled DMA cycles of that switch
  u64 cycles = 0;         // estimated DUT cycles of the detection run
  u64 instructions = 0;   // DUT instructions retired by the detection run
  TSIM_BATCH_FAULT_COUNTERS(TSIM_U32_COUNTER)
  bool failed = false;    // run did not complete; batch bits count as errors

  bool operator==(const BatchTrace&) const = default;
};

/// Everything the scheduler measured and detected for one TTI.
struct SlotResult {
  u64 tti = 0;
  u64 problems = 0;
  u64 bits = 0;    // payload bits carried by the slot
  u64 errors = 0;  // hard-decision bit errors vs the transmitted bits

  /// Hard-decision detected bits, per allocation (same shape as tx_bits).
  std::vector<std::vector<u8>> detected_bits;

  /// Bit errors per allocation (sum over the allocation's batches; indexed
  /// like SlotWorkload::allocations, sums to `errors`). This is the per-PDU
  /// outcome the MAC layer's FAPI CRC indication is built from: an
  /// allocation "passes CRC" iff its entry here is zero (see src/mac/).
  std::vector<u64> allocation_errors;

  /// Busy cycles include the reload cycles charged to the cluster.
  std::vector<u64> cluster_busy_cycles;    // per cluster
  std::vector<u32> cluster_batches;        // batches run per cluster
  std::vector<u32> cluster_reloads;        // program switches per cluster
  std::vector<u64> cluster_reload_cycles;  // modeled reload cycles per cluster
  u64 total_reloads = 0;                   // sum over clusters
  u64 total_reload_cycles = 0;             // sum over clusters
  u64 total_instructions = 0;              // DUT instructions retired, all batches
  std::vector<u64> symbol_cycles;          // per-symbol critical path (max/cluster)
  /// Slot critical path. Symbols are data-serialized, so this is the sum of
  /// the per-symbol critical paths (== sum(symbol_cycles)); with imbalanced
  /// symbol work it can exceed every cluster's busy total.
  u64 slot_cycles = 0;
  std::vector<BatchTrace> trace;

  // ---- graceful degradation (deterministic fault injection; sim/fault.h) ----
  /// True when the slot ran around trouble: a dead cluster's batches were
  /// reassigned to survivors, or a batch run failed and its bits were
  /// counted as errors for the CRC/HARQ layer to absorb.
  bool degraded = false;
  std::vector<u32> dead_clusters;  // clusters dead this TTI (fault plan)
  TSIM_SLOT_FAULT_COUNTERS(TSIM_U64_COUNTER)  // summed over the batches

  double ber() const {
    return bits == 0 ? 0.0 : static_cast<double>(errors) / static_cast<double>(bits);
  }
  bool operator==(const SlotResult&) const = default;
};

class SlotScheduler {
 public:
  /// Construction-time warm state exported by a sibling scheduler with the
  /// same machine/program-shaping config (warm_key): the built per-geometry
  /// programs and, when the sibling calibrated, the measured batch costs.
  /// Reusing it skips program assembly and the calibration warm-up runs -
  /// both deterministic pure functions of the shaping config - so a
  /// warm-constructed scheduler is bit-identical to a cold one
  /// (tests/fastforward_test.cpp pins this point-for-point).
  struct WarmState {
    u64 key = 0;                           // warm_key() of the source config
    std::vector<rvasm::Program> programs;  // per geometry, discovery order
    bool calibrated = false;               // batch_cycles hold measured costs
    std::vector<u64> batch_cycles;         // per geometry, when calibrated
  };

  /// Identity of the machine/program-shaping subset of (cfg, groups): the
  /// cluster geometry and latency map, precision, problems_per_core,
  /// batch_cores, and the UE-group geometry sequence. num_clusters, host
  /// threading, the policy, fast_forward and the fault plan are excluded -
  /// they shape neither the programs nor the calibration measurements, so
  /// warm state fans out across those axes (e.g. neighboring DSE points).
  static u64 warm_key(const ClusterPoolConfig& cfg,
                      const std::vector<UeGroup>& groups);

  SlotScheduler(const ClusterPoolConfig& cfg, std::vector<UeGroup> groups);
  /// Warm-started construction: `warm` must be null or carry the matching
  /// warm_key (checked). See WarmState.
  SlotScheduler(const ClusterPoolConfig& cfg, std::vector<UeGroup> groups,
                const WarmState* warm);

  /// Exports this scheduler's warm state for sibling constructions.
  WarmState export_warm_state() const;

  /// Processes one slot's workload on the cluster pool and returns detections
  /// plus deterministic per-cluster/per-symbol cycle accounting.
  SlotResult run_slot(const SlotWorkload& slot);

  const ClusterPoolConfig& config() const { return cfg_; }
  /// The batch layout used for UE group `g`'s geometry.
  const kern::MmseLayout& layout_for_group(u32 g) const;
  /// Placeholder batch cost used when the locality policy skips calibration
  /// (see the constructor comment): large enough that the chunk-count
  /// arithmetic sits in the same large-cost asymptote as real calibrated
  /// kernel cycles, so placement matches what calibrated uniform costs
  /// would produce.
  static constexpr u64 kUncalibratedBatchCost = u64{1} << 20;

  // ---- checkpoint/restore (sim/snapshot.h) ----
  /// Serializes, per cluster, what a later slot reads at a slot boundary:
  /// loaded_geometry (the locality policy's assignment and the reload
  /// accounting read it), the resident programs as an ordered list of
  /// (geometry, active cores) in handle order, the active handle, and the
  /// L1 words. Nothing else is live there: run_batch restages its inputs
  /// and resets every hart before each run, and reads its outputs back
  /// before the slot ends. L1 stays whole because a batch that deadlocked
  /// under a fault plan leaves the barrier counter set, and ECC-off upsets
  /// persist in words no batch restages. Geometry contexts, calibration,
  /// translations and program images are rebuilt from the construction-time
  /// config instead.
  void save_state(sim::SnapshotWriter& w) const;
  /// Restores into a scheduler constructed with the same config and groups:
  /// re-loads each cluster's resident list (reusing what calibration already
  /// translated), selects the active program, then restores L1. Throws
  /// sim::SnapshotError on a count mismatch, a corrupt payload, or a
  /// resident entry that would come back at a different handle.
  void restore_state(sim::SnapshotReader& r);

  /// Smallest core count a fast-forward shrunk variant runs: keeps every
  /// post-barrier hart class populated (hart 0's exit path, the sleepers,
  /// the last arrival's waker tail - see the header note) with margin, so
  /// the cycle accounting is provably invariant under the shrink.
  /// MmseLayout::active_cores additionally requires >= 2.
  static constexpr u32 kMinFastForwardCores = 4;

  /// Host-side fast-forward execution statistics, accumulated over every
  /// run_slot since construction. Never part of SlotResult or any report -
  /// purely observability for drivers and benches.
  struct FastForwardStats {
    u64 full_batches = 0;    // batches run at full layout width
    u64 shrunk_batches = 0;  // batches run on a shrunk variant
    u64 cores_full = 0;      // cores a full-width run would have used
    u64 cores_run = 0;       // cores actually executed
    /// Fraction of core-runs the shrink parked (0 with fast-forward off).
    double park_fraction() const {
      return cores_full == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(cores_run) /
                             static_cast<double>(cores_full);
    }
  };
  FastForwardStats fast_forward_stats() const;

  /// Calibrated single-batch cycle cost of group `g`'s geometry (measured
  /// once at construction; the locality policy's load estimate). The
  /// locality policy skips the calibration warm-up runs in the degenerate
  /// configs where relative costs cannot change an assignment (a single
  /// cluster, or a single geometry whose chunks are cost-uniform anyway)
  /// and substitutes kUncalibratedBatchCost. Zero for a round-robin
  /// scheduler, which never reads the costs.
  u64 batch_cycles_for_group(u32 g) const;

 private:
  struct GeometryContext {
    u32 ntx = 0;
    u32 nrx = 0;
    kern::MmseLayout layout;
    rvasm::Program program;
    u64 batch_cycles = 0;   // calibrated cycles of one (padded) batch
    u64 reload_cycles = 0;  // modeled DMA cycles to load the image
  };
  /// A program resident on a cluster's machine: geometry `geometry` built
  /// for `cores` active cores (the layout's full count, or fewer for a
  /// fast-forward shrunk variant).
  struct Resident {
    u32 geometry = 0;
    u32 cores = 0;
    bool operator==(const Resident&) const = default;
  };
  struct Cluster {
    std::unique_ptr<iss::Machine> machine;
    i64 loaded_geometry = -1;  // index into geometries_, -1 = none
    /// The machine's resident programs in handle order (entry i is
    /// iss::Machine handle i), one per (geometry, cores) pair that has run
    /// here. Shrunk variants are host-side execution shortcuts - they never
    /// appear in the reload accounting keyed on loaded_geometry.
    std::vector<Resident> resident;
    /// Host-side fast-forward counters of the batches run here; touched only
    /// by the worker that claimed this cluster (fast_forward_stats sums).
    FastForwardStats ff;
  };
  struct BatchTask {
    u32 allocation = 0;
    u32 offset = 0;
    u32 count = 0;
    u32 geometry = 0;
  };

  u32 geometry_for(u32 ntx, u32 nrx);  // builds layout+program on first use
  /// Makes geometry `g` at `cores` active cores the active program on
  /// `cluster` and returns its handle: an image restore when it is already
  /// resident, a load and translation on first use. Only the worker that
  /// claimed the cluster calls it, so no locking is needed.
  u32 activate_program(Cluster& cluster, u32 g, u32 cores) const;
  /// Builds the shrunk program variant of geometry `g` with `cores` active
  /// cores (all higher hartids park in crt0).
  rvasm::Program build_variant_program(u32 g, u32 cores) const;
  /// Adopts a sibling's calibrated costs and replicates calibration's
  /// cluster-0 residency side effects without the measurement runs.
  void adopt_warm_calibration(const WarmState& warm);
  /// Runs one deterministic batch per geometry on cluster 0 to measure its
  /// batch cycle cost (and warm cluster 0's resident-program cache).
  void calibrate_geometry_costs();
  /// Serial up-front batch->cluster assignment: fills trace[i].cluster and
  /// returns each cluster's ordered queue of batch indices. Only clusters
  /// with alive[c] != 0 receive work (degradation around dead clusters).
  std::vector<std::vector<u32>> assign_batches(const std::vector<BatchTask>& tasks,
                                               const SlotWorkload& slot,
                                               std::vector<BatchTrace>& trace,
                                               const std::vector<u8>& alive) const;
  void run_batch(Cluster& cluster, const BatchTask& task, const SlotWorkload& slot,
                 SlotResult& result, u32 batch_index);

  ClusterPoolConfig cfg_;
  std::vector<UeGroup> groups_;
  std::vector<phy::QamModulator> mods_;    // one per group
  std::vector<u32> group_geometry_;        // group index -> geometry index
  std::vector<GeometryContext> geometries_;
  std::vector<Cluster> clusters_;
  std::vector<u64> batch_errors_scratch_;  // per-batch error counts, one run_slot
  bool calibrated_ = false;                // real measured costs (not placeholder)
};

}  // namespace tsim::ran
