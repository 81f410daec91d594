#include "ran/scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "phy/channel.h"
#include "sim/cosim.h"

namespace tsim::ran {

AssignPolicy parse_policy(const std::string& name) {
  if (name == "roundrobin") return AssignPolicy::kRoundRobin;
  if (name == "locality") return AssignPolicy::kLocality;
  throw SimError("unknown assignment policy '" + name +
                 "' (expected roundrobin or locality)");
}

void ClusterPoolConfig::validate() const {
  check(num_clusters >= 1, "ClusterPoolConfig: need at least one cluster");
  check(host_threads >= 1, "ClusterPoolConfig: need at least one host thread");
  check(threads_per_cluster == 1,
        "ClusterPoolConfig: threads_per_cluster must be 1 (intra-cluster "
        "threading was removed; clusters run in parallel via host_threads)");
  check(problems_per_core >= 1, "ClusterPoolConfig: problems_per_core >= 1");
  cluster.validate();
  fault.validate();
  if (fault.enabled && fault.cluster_fail_tti != sim::FaultConfig::kNever) {
    check(fault.cluster_fail_id < num_clusters,
          "ClusterPoolConfig: fault.cluster_fail_id out of range");
    check(num_clusters >= 2,
          "ClusterPoolConfig: cluster failure needs a survivor cluster");
  }
}

SlotScheduler::SlotScheduler(const ClusterPoolConfig& cfg, std::vector<UeGroup> groups)
    : SlotScheduler(cfg, std::move(groups), nullptr) {}

SlotScheduler::SlotScheduler(const ClusterPoolConfig& cfg, std::vector<UeGroup> groups,
                             const WarmState* warm)
    : cfg_(cfg), groups_(std::move(groups)) {
  cfg_.validate();
  check(!groups_.empty(), "SlotScheduler: need at least one UE group");

  mods_.reserve(groups_.size());
  group_geometry_.reserve(groups_.size());
  for (const auto& g : groups_) {
    mods_.emplace_back(g.qam_order);
    group_geometry_.push_back(geometry_for(g.ntx, g.nrx));
  }

  if (warm != nullptr) {
    check(warm->key == warm_key(cfg_, groups_),
          "SlotScheduler: warm state from an incompatible shaping config");
    check(warm->programs.size() == geometries_.size(),
          "SlotScheduler: warm state geometry count mismatch");
  }

  // All geometries share one hart count so a cluster can switch geometry by
  // selecting a resident program without re-sizing the machine: the common
  // count is the smallest per-geometry L1 fit (optionally capped by
  // batch_cores).
  u32 common_cores = cfg_.cluster.num_cores();
  if (cfg_.batch_cores != 0) common_cores = std::min(common_cores, cfg_.batch_cores);
  for (const auto& geo : geometries_) {
    const u32 fit = kern::MmseLayout::max_parallel_cores(cfg_.cluster, geo.ntx,
                                                         geo.nrx, cfg_.prec);
    common_cores =
        std::min(common_cores, std::max(1u, fit / cfg_.problems_per_core));
  }
  for (u32 g = 0; g < geometries_.size(); ++g) {
    GeometryContext& geo = geometries_[g];
    geo.layout.num_cores = common_cores;
    geo.layout.validate();
    // A warm sibling already assembled the identical program (it is a pure
    // function of the layout, which the warm_key pins).
    geo.program = warm != nullptr ? warm->programs[g]
                                  : kern::build_mmse_program(geo.layout);
    geo.reload_cycles = program_reload_cycles(geo.program.size_bytes());
  }

  clusters_.resize(cfg_.num_clusters);
  for (auto& c : clusters_) {
    c.machine = std::make_unique<iss::Machine>(cfg_.cluster, iss::TimingConfig{},
                                               common_cores);
    c.geometry_handles.assign(geometries_.size(), -1);
  }

  // Calibration is only worth its warm-up runs when the locality policy has
  // a real placement decision to make: with a single cluster every batch
  // lands on it regardless of cost, and with a single geometry the chunks
  // are cost-uniform, so RELATIVE costs never change an assignment.
  // Round-robin never reads the costs at all. BENCH_ran_throughput showed
  // locality losing wall-clock to roundrobin in exactly these degenerate
  // configs, entirely from calibration overhead. When skipped under
  // locality, every geometry gets a large uniform placeholder cost: the
  // span = ceil(cost / ceil(cost/nc)) chunk arithmetic in assign_batches is
  // magnitude-sensitive for SMALL costs (a zero cost would even degenerate
  // the even-share target to 0 and bypass the residency tiers), but for
  // costs >> num_clusters^2 it sits in the stable large-cost asymptote
  // (span == nc) that every real calibrated kernel (~1e5 cycles) also
  // lands in - so the placeholder reproduces calibrated-uniform placement
  // for any realistic cost magnitude.
  if (cfg_.policy == AssignPolicy::kLocality) {
    if (cfg_.num_clusters > 1 && geometries_.size() > 1) {
      if (warm != nullptr && warm->calibrated) {
        adopt_warm_calibration(*warm);
      } else {
        calibrate_geometry_costs();
      }
      calibrated_ = true;
    } else {
      for (auto& geo : geometries_) geo.batch_cycles = kUncalibratedBatchCost;
    }
  }
}

u64 SlotScheduler::warm_key(const ClusterPoolConfig& cfg,
                            const std::vector<UeGroup>& groups) {
  u64 h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const tera::TeraPoolConfig& c = cfg.cluster;
  mix(c.cores_per_tile);
  mix(c.tiles_per_subgroup);
  mix(c.subgroups_per_group);
  mix(c.groups);
  mix(c.tile_l1_bytes);
  mix(c.banks_per_tile);
  mix(c.icache_bytes);
  mix(c.icache_line_bytes);
  mix(c.l2_bytes);
  mix(c.lat_local_tile);
  mix(c.lat_same_subgroup);
  mix(c.lat_same_group);
  mix(c.lat_remote_group);
  mix(c.lat_l2);
  mix(static_cast<u64>(cfg.prec));
  mix(cfg.problems_per_core);
  mix(cfg.batch_cores);
  mix(groups.size());
  for (const UeGroup& g : groups) {
    mix(g.ntx);
    mix(g.nrx);
  }
  return h;
}

SlotScheduler::WarmState SlotScheduler::export_warm_state() const {
  WarmState w;
  w.key = warm_key(cfg_, groups_);
  w.programs.reserve(geometries_.size());
  for (const GeometryContext& geo : geometries_) w.programs.push_back(geo.program);
  w.calibrated = calibrated_;
  if (calibrated_) {
    w.batch_cycles.reserve(geometries_.size());
    for (const GeometryContext& geo : geometries_)
      w.batch_cycles.push_back(geo.batch_cycles);
  }
  return w;
}

void SlotScheduler::adopt_warm_calibration(const WarmState& warm) {
  check(warm.batch_cycles.size() == geometries_.size(),
        "SlotScheduler: warm calibration geometry count mismatch");
  // Adopt the sibling's measured costs and replicate calibration's residency
  // side effects - cluster 0 ends with every geometry resident and the last
  // one loaded - without the measurement runs. The costs are a deterministic
  // pure function of the shaping config, so placement decisions and reload
  // accounting match a cold-calibrated scheduler exactly.
  Cluster& c0 = clusters_[0];
  for (u32 g = 0; g < geometries_.size(); ++g) {
    geometries_[g].batch_cycles = warm.batch_cycles[g];
    c0.geometry_handles[g] =
        static_cast<i64>(c0.machine->load_program(geometries_[g].program));
    c0.loaded_geometry = static_cast<i64>(g);
  }
}

SlotScheduler::FastForwardStats SlotScheduler::fast_forward_stats() const {
  FastForwardStats s;
  for (const Cluster& c : clusters_) {
    s.full_batches += c.ff.full_batches;
    s.shrunk_batches += c.ff.shrunk_batches;
    s.cores_full += c.ff.cores_full;
    s.cores_run += c.ff.cores_run;
  }
  return s;
}

u32 SlotScheduler::geometry_for(u32 ntx, u32 nrx) {
  for (u32 i = 0; i < geometries_.size(); ++i) {
    if (geometries_[i].ntx == ntx && geometries_[i].nrx == nrx) return i;
  }
  GeometryContext geo;
  geo.ntx = ntx;
  geo.nrx = nrx;
  geo.layout.ntx = ntx;
  geo.layout.nrx = nrx;
  geo.layout.prec = cfg_.prec;
  geo.layout.problems_per_core = cfg_.problems_per_core;
  geo.layout.cluster = cfg_.cluster;
  geometries_.push_back(std::move(geo));  // num_cores/program set by constructor
  return static_cast<u32>(geometries_.size() - 1);
}

const kern::MmseLayout& SlotScheduler::layout_for_group(u32 g) const {
  check(g < groups_.size(), "layout_for_group: group out of range");
  return geometries_[group_geometry_[g]].layout;
}

u64 SlotScheduler::batch_cycles_for_group(u32 g) const {
  check(g < groups_.size(), "batch_cycles_for_group: group out of range");
  return geometries_[group_geometry_[g]].batch_cycles;
}

namespace {
constexpr u32 kSchedulerTag = 0x31484353;  // "SCH1"
}

void SlotScheduler::save_state(sim::SnapshotWriter& w) const {
  w.tag(kSchedulerTag);
  w.write_u64(geometries_.size());
  w.write_u64(clusters_.size());
  for (const Cluster& c : clusters_) {
    w.write_i64(c.loaded_geometry);
    w.write_u64(c.geometry_handles.size());
    for (const i64 h : c.geometry_handles) w.write_i64(h);
    w.write_u64(c.variants.size());
    for (const Cluster::Variant& v : c.variants) {
      w.write_u32(v.geometry);
      w.write_u32(v.cores);
      w.write_i64(v.handle);
    }
    c.machine->save_state(w);
  }
}

void SlotScheduler::restore_state(sim::SnapshotReader& r) {
  r.expect_tag(kSchedulerTag, "SlotScheduler");
  if (r.read_u64() != geometries_.size())
    r.fail("scheduler snapshot geometry count does not match this config");
  if (r.read_u64() != clusters_.size())
    r.fail("scheduler snapshot cluster count does not match this config");
  for (Cluster& c : clusters_) {
    const i64 loaded = r.read_i64();
    if (loaded < -1 || loaded >= static_cast<i64>(geometries_.size()))
      r.fail("loaded_geometry out of range");
    const u64 nh = r.read_u64();
    if (nh != geometries_.size()) r.fail("geometry handle table size mismatch");
    std::vector<i64> handles(nh);
    for (i64& h : handles) h = r.read_i64();
    const u64 nv = r.read_u64();
    std::vector<Cluster::Variant> variants(nv);
    for (Cluster::Variant& v : variants) {
      v.geometry = r.read_u32();
      v.cores = r.read_u32();
      v.handle = r.read_i64();
      if (v.geometry >= geometries_.size())
        r.fail("variant geometry out of range");
    }
    c.machine->restore_state(r);
    for (const i64 h : handles) {
      if (h < -1 ||
          h >= static_cast<i64>(c.machine->num_resident_programs()))
        r.fail("geometry handle out of range after machine restore");
    }
    for (const Cluster::Variant& v : variants) {
      if (v.handle < -1 ||
          v.handle >= static_cast<i64>(c.machine->num_resident_programs()))
        r.fail("variant handle out of range after machine restore");
    }
    c.loaded_geometry = loaded;
    c.geometry_handles = std::move(handles);
    c.variants = std::move(variants);
  }
}

void SlotScheduler::calibrate_geometry_costs() {
  // One deterministic single-threaded batch per geometry on cluster 0: the
  // measured duration is the locality policy's load estimate. A batch's cost
  // is padding-independent (every core always runs problems_per_core
  // problems), so any well-formed operands measure the real duration. Side
  // benefit: cluster 0's resident-program cache is warm for every geometry
  // before the first slot.
  Cluster& c0 = clusters_[0];
  iss::Machine& machine = *c0.machine;
  for (u32 g = 0; g < geometries_.size(); ++g) {
    GeometryContext& geo = geometries_[g];
    const kern::MmseLayout& lay = geo.layout;
    c0.geometry_handles[g] = static_cast<i64>(machine.load_program(geo.program));
    c0.loaded_geometry = static_cast<i64>(g);

    Rng rng(0xCA11B ^ static_cast<u64>(g));
    phy::Channel ch(phy::ChannelType::kRayleigh, lay.nrx, lay.ntx);
    phy::QamModulator qam(4);
    const u32 capacity = lay.num_cores * lay.problems_per_core;
    const sim::Batch batch =
        sim::generate_batch(ch, qam, lay.ntx, capacity, 10.0, rng);
    for (u32 i = 0; i < capacity; ++i) {
      sim::stage_problem(machine.memory(), lay, i / lay.problems_per_core,
                         i % lay.problems_per_core, batch.problems[i]);
    }
    machine.reset_harts();
    const iss::RunResult run = machine.run();
    check(run.exited && !run.deadlock,
          "SlotScheduler: geometry calibration run did not complete");
    geo.batch_cycles = std::max<u64>(1, machine.estimated_cycles());
  }
}

std::vector<std::vector<u32>> SlotScheduler::assign_batches(
    const std::vector<BatchTask>& tasks, const SlotWorkload& slot,
    std::vector<BatchTrace>& trace, const std::vector<u8>& alive) const {
  std::vector<std::vector<u32>> queues(cfg_.num_clusters);
  const auto assign = [&](u32 task_index, u32 c) {
    trace[task_index].cluster = c;
    queues[c].push_back(task_index);
  };

  // Survivor set: dead clusters (fault plan, see run_slot) take no work;
  // their share spills to the survivors through the same policy logic.
  std::vector<u32> alive_ids;
  alive_ids.reserve(cfg_.num_clusters);
  for (u32 c = 0; c < cfg_.num_clusters; ++c)
    if (alive[c] != 0) alive_ids.push_back(c);
  const u32 n_alive = static_cast<u32>(alive_ids.size());
  check(n_alive >= 1, "assign_batches: no alive cluster to assign to");

  if (cfg_.policy == AssignPolicy::kRoundRobin) {
    for (u32 i = 0; i < tasks.size(); ++i) assign(i, alive_ids[i % n_alive]);
    return queues;
  }

  // kLocality. Everything below runs serially on the calling thread and
  // depends only on the workload, the calibrated per-geometry costs, and the
  // clusters' resident geometries - so the assignment (and with it all cycle
  // accounting) is deterministic for every host_threads value.
  u32 symbols = 0;
  for (const BatchTask& t : tasks)
    symbols = std::max(symbols, slot.allocations[t.allocation].symbol + 1);
  std::vector<std::vector<u32>> by_symbol(symbols);
  for (u32 i = 0; i < tasks.size(); ++i)
    by_symbol[slot.allocations[tasks[i].allocation].symbol].push_back(i);

  // Residency prediction mirrors execution exactly: each cluster consumes
  // its queue in the order built here, so the geometry sequence per cluster
  // (and hence every reload) is known at assignment time. `incoming[c]` is
  // cluster c's resident geometry at the start of the symbol being placed.
  std::vector<i64> incoming(cfg_.num_clusters);
  for (u32 c = 0; c < cfg_.num_clusters; ++c)
    incoming[c] = clusters_[c].loaded_geometry;

  struct Group {
    u32 geometry = 0;
    u64 cost = 0;              // batches * calibrated batch cycles
    std::vector<u32> members;  // task indices in batch order
  };
  struct Run {
    u32 geometry = 0;
    std::vector<u32> members;  // contiguous same-geometry run on one cluster
  };

  for (u32 s = 0; s < symbols; ++s) {
    // Group the symbol's batches by geometry, preserving batch order within
    // a group (two UE groups sharing one geometry merge here).
    std::vector<Group> groups;
    for (const u32 i : by_symbol[s]) {
      const u32 g = tasks[i].geometry;
      auto it = std::find_if(groups.begin(), groups.end(),
                             [g](const Group& grp) { return grp.geometry == g; });
      if (it == groups.end()) {
        groups.push_back(Group{g, 0, {}});
        it = groups.end() - 1;
      }
      it->members.push_back(i);
      it->cost += geometries_[g].batch_cycles;
    }
    // Largest group first; ties by geometry index (deterministic).
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group& a, const Group& b) {
                       if (a.cost != b.cost) return a.cost > b.cost;
                       return a.geometry < b.geometry;
                     });

    u64 total = 0;
    for (const Group& g : groups) total += g.cost;
    // Even per-symbol share: a cluster is filled up to the target before the
    // rest of a group spills to the next one, so the per-symbol critical
    // path stays within one batch of the balanced optimum.
    const u64 target = (total + n_alive - 1) / n_alive;
    std::vector<u64> load(cfg_.num_clusters, 0);
    std::vector<std::vector<Run>> runs(cfg_.num_clusters);

    const auto hosts = [&](u32 c, u32 g) -> Run* {
      for (Run& r : runs[c])
        if (r.geometry == g) return &r;
      return nullptr;
    };

    for (const Group& grp : groups) {
      const u64 batch_cost = geometries_[grp.geometry].batch_cycles;
      const i64 geo = static_cast<i64>(grp.geometry);
      // A group wider than the even share is pre-split into near-even
      // chunks (as many as it spans targets, capped by the cluster count
      // and the batch count); smaller groups stay whole. Placing whole
      // chunks instead of filling batch-by-batch keeps the per-symbol
      // makespan within one batch of the balanced optimum while touching
      // the fewest clusters per geometry.
      const u64 span = (grp.cost + target - 1) / std::max<u64>(1, target);
      const u32 n_chunks = static_cast<u32>(std::max<u64>(
          1, std::min<u64>(span, std::min<u64>(n_alive, grp.members.size()))));
      size_t next = 0;
      for (u32 k = 0; k < n_chunks; ++k) {
        const size_t take =
            (grp.members.size() - next + (n_chunks - k) - 1) / (n_chunks - k);
        // Choose the chunk's cluster by lexicographic (tier, load, id) -
        // chunks of one group repel each other (that is what the pre-split
        // is for - balance), so a cluster already hosting this geometry is
        // avoided until nothing else is left. Tiers, best first:
        //  0. enters the symbol resident in this geometry (zero reload: the
        //     matching run is rotated to the front below), not hosting it
        //     yet, room below the target;
        //  1. below the target, not hosting it;
        //  2. not hosting it;
        //  3. anything (chunks merge back as a last resort).
        const auto tier = [&](u32 c) -> u32 {
          if (hosts(c, grp.geometry) != nullptr) return 3;
          if (load[c] >= target) return 2;
          return incoming[c] == geo ? 0 : 1;
        };
        u32 best = alive_ids[0];
        u32 best_tier = tier(best);
        for (u32 ci = 1; ci < n_alive; ++ci) {
          const u32 c = alive_ids[ci];
          const u32 t = tier(c);
          if (t < best_tier || (t == best_tier && load[c] < load[best])) {
            best = c;
            best_tier = t;
          }
        }
        Run* run = hosts(best, grp.geometry);
        if (run == nullptr) {
          if (incoming[best] != geo)
            load[best] += geometries_[grp.geometry].reload_cycles;
          runs[best].push_back(Run{grp.geometry, {}});
          run = &runs[best].back();
        }
        for (size_t t = 0; t < take; ++t) {
          run->members.push_back(grp.members[next++]);
          load[best] += batch_cost;
        }
      }
    }

    // Emit each cluster's runs for this symbol, rotating the run that
    // matches the cluster's incoming residency to the front: its program is
    // already loaded, so starting with it saves one reload per symbol
    // without changing any result (within-symbol order is free). The last
    // run decides the residency the next symbol starts from.
    for (u32 c = 0; c < cfg_.num_clusters; ++c) {
      if (runs[c].empty()) continue;
      for (size_t r = 0; r < runs[c].size(); ++r) {
        if (static_cast<i64>(runs[c][r].geometry) == incoming[c]) {
          std::rotate(runs[c].begin(), runs[c].begin() + static_cast<ptrdiff_t>(r),
                      runs[c].begin() + static_cast<ptrdiff_t>(r) + 1);
          break;
        }
      }
      for (const Run& r : runs[c])
        for (const u32 i : r.members) assign(i, c);
      incoming[c] = static_cast<i64>(runs[c].back().geometry);
    }
  }
  return queues;
}

i64& SlotScheduler::variant_handle(Cluster& cluster, u32 g, u32 cores) const {
  for (Cluster::Variant& v : cluster.variants) {
    if (v.geometry == g && v.cores == cores) return v.handle;
  }
  cluster.variants.push_back(Cluster::Variant{g, cores, -1});
  return cluster.variants.back().handle;
}

rvasm::Program SlotScheduler::build_variant_program(u32 g, u32 cores) const {
  // The variant keeps the full layout (so every addressing constant, and
  // with it the program text and per-hart timing, is unchanged) and only
  // parks the cores beyond `cores` via the active_cores override.
  kern::MmseLayout lay = geometries_[g].layout;
  lay.active_cores = cores;
  lay.validate();
  return kern::build_mmse_program(lay);
}

void SlotScheduler::run_batch(Cluster& cluster, const BatchTask& task,
                              const SlotWorkload& slot, SlotResult& result,
                              u32 batch_index) {
  const GeometryContext& geo = geometries_[task.geometry];
  const kern::MmseLayout& lay = geo.layout;
  iss::Machine& machine = *cluster.machine;
  const Allocation& alloc = slot.allocations[task.allocation];
  const u32 capacity = lay.num_cores * lay.problems_per_core;

  // Geometry switch: charge the modeled DMA reload cost. The accounting is
  // keyed on geometry alone - the fast-forward variant swaps below are
  // host-side execution shortcuts of the same modeled program and never
  // count as reloads.
  u32 reloads = 0;
  u64 reload_cycles = 0;
  if (cluster.loaded_geometry != static_cast<i64>(task.geometry)) {
    cluster.loaded_geometry = static_cast<i64>(task.geometry);
    reloads = 1;
    reload_cycles = geo.reload_cycles;
  }

  // Fast-forward shrink: a partially filled batch runs a program variant
  // that parks the all-padding cores in crt0 instead of computing results
  // nobody reads. The active count is quantized to a power of two with a
  // floor of kMinFastForwardCores, which keeps the modeled cycle accounting
  // provably invariant (see the header note); the decision is a pure
  // function of task.count, hence deterministic everywhere. Disabled under
  // a fault plan: fault draws are parameterized by the full hart count.
  u32 run_cores = lay.num_cores;
  if (cfg_.fast_forward && !cfg_.fault.enabled && task.count < capacity) {
    const u32 need =
        (task.count + lay.problems_per_core - 1) / lay.problems_per_core;
    u32 cores = kMinFastForwardCores;
    while (cores < need) cores <<= 1;
    run_cores = std::min(cores, lay.num_cores);
  }
  const bool shrunk = run_cores < lay.num_cores;
  ++(shrunk ? cluster.ff.shrunk_batches : cluster.ff.full_batches);
  cluster.ff.cores_full += lay.num_cores;
  cluster.ff.cores_run += run_cores;

  // Activate the resident program for (geometry, run_cores): an image
  // restore - no retranslation; translation happens only on the first visit
  // of the pair to this cluster.
  i64& handle = shrunk ? variant_handle(cluster, task.geometry, run_cores)
                       : cluster.geometry_handles[task.geometry];
  if (handle < 0) {
    handle = static_cast<i64>(machine.load_program(
        shrunk ? build_variant_program(task.geometry, run_cores) : geo.program));
  } else if (machine.active_program() !=
             static_cast<iss::Machine::ProgramHandle>(handle)) {
    machine.select_program(static_cast<iss::Machine::ProgramHandle>(handle));
  }

  // Stage the batch; unused tail slots repeat real problems so every active
  // core computes well-defined data (results of padded slots are never
  // read). Problem addresses are independent of the layout's core count, so
  // the staged prefix is identical for the full and shrunk variants.
  const u32 staged = run_cores * lay.problems_per_core;
  for (u32 i = 0; i < staged; ++i) {
    const u32 p = task.offset + (i < task.count ? i : i % task.count);
    sim::stage_problem(machine.memory(), lay, i / lay.problems_per_core,
                       i % lay.problems_per_core, alloc.batch.problems[p]);
  }

  machine.reset_harts();

  // ---- deterministic fault hooks (sim/fault.h) ----
  // Keyed by (fault seed, site, tti, batch_index): the same faults land at
  // the same sites no matter which host thread services the cluster. When
  // the config carries no batch faults this whole block is one cold branch.
  sim::EccCounts ecc;
  if (cfg_.fault.any_batch_faults()) {
    machine.clear_hart_faults();
    const u32 num_harts = lay.num_cores;
    const sim::HartFaultDraw trap = sim::draw_hart_fault(
        cfg_.fault, slot.tti, batch_index, num_harts, /*hang=*/false);
    if (trap.fire) machine.inject_hart_fault(trap.hart, trap.at_instret, false);
    const sim::HartFaultDraw hang = sim::draw_hart_fault(
        cfg_.fault, slot.tti, batch_index, num_harts, /*hang=*/true);
    if (hang.fire) machine.inject_hart_fault(hang.hart, hang.at_instret, true);
    ecc = sim::apply_l1_faults(machine.memory(),
                               tera::AddrMap(cfg_.cluster).l1_words(),
                               cfg_.fault, slot.tti, batch_index);
  }

  const bool faults_armed = machine.hart_faults_armed();
  const iss::RunResult run = machine.run();
  const bool completed = run.exited && !run.deadlock;
  if (!completed) {
    // Graceful degradation only under an explicit fault plan: a stuck or
    // trapped hart keeps peers from the exit barrier, the run reports a
    // deadlock, and the batch's payload bits all count as errors - the CRC
    // fails and the HARQ layer absorbs the loss. Anything else still throws.
    check(cfg_.fault.enabled, "SlotScheduler: batch run did not complete");
  }
  const u32 hart_faults = machine.hart_faults_applied();
  if (faults_armed) machine.clear_hart_faults();
  const u64 cycles = machine.estimated_cycles();

  // Read back detections and count errors against the transmitted bits. A
  // failed run has undefined result memory: skip the readback and charge
  // every bit of the batch as an error (detected_bits stay zeroed).
  const phy::QamModulator& qam = mods_[alloc.group];
  const u32 bits_per_problem = lay.ntx * qam.bits_per_symbol();
  std::vector<u8>& det = result.detected_bits[task.allocation];
  u64 errors = 0;
  if (completed) {
    for (u32 i = 0; i < task.count; ++i) {
      const auto xhat = sim::read_xhat(machine.memory(), lay,
                                       i / lay.problems_per_core,
                                       i % lay.problems_per_core);
      const auto rx_bits = qam.demap_sequence(xhat);
      const size_t base = static_cast<size_t>(task.offset + i) * bits_per_problem;
      for (u32 b = 0; b < bits_per_problem; ++b) {
        det[base + b] = rx_bits[b];
        errors += (rx_bits[b] != alloc.batch.tx_bits[base + b]) ? 1 : 0;
      }
    }
  } else {
    errors = static_cast<u64>(task.count) * bits_per_problem;
  }

  // trace.cluster was assigned when the schedule was built; errors are folded
  // into the result after all workers join (deterministic order).
  BatchTrace& trace = result.trace[batch_index];
  trace.allocation = task.allocation;
  trace.offset = task.offset;
  trace.count = task.count;
  trace.geometry = task.geometry;
  trace.reloads = reloads;
  trace.reload_cycles = reload_cycles;
  trace.cycles = cycles;
  trace.instructions = run.instructions;
  trace.hart_faults = hart_faults;
  trace.ecc_corrected = static_cast<u32>(ecc.corrected);
  trace.ecc_detected = static_cast<u32>(ecc.detected);
  trace.ecc_silent = static_cast<u32>(ecc.silent);
  trace.failed = !completed;
  batch_errors_scratch_[batch_index] = errors;
}

SlotResult SlotScheduler::run_slot(const SlotWorkload& slot) {
  SlotResult result;
  result.tti = slot.tti;
  result.problems = slot.num_problems();
  result.bits = slot.num_bits();
  result.cluster_busy_cycles.assign(cfg_.num_clusters, 0);
  result.cluster_batches.assign(cfg_.num_clusters, 0);
  result.cluster_reloads.assign(cfg_.num_clusters, 0);
  result.cluster_reload_cycles.assign(cfg_.num_clusters, 0);

  u32 symbols = 0;
  result.detected_bits.resize(slot.allocations.size());
  result.allocation_errors.assign(slot.allocations.size(), 0);
  for (size_t a = 0; a < slot.allocations.size(); ++a) {
    result.detected_bits[a].assign(slot.allocations[a].batch.tx_bits.size(), 0);
    symbols = std::max(symbols, slot.allocations[a].symbol + 1);
  }

  // ---- build the batch schedule: chop allocations into cluster batches ----
  std::vector<BatchTask> tasks;
  for (u32 a = 0; a < static_cast<u32>(slot.allocations.size()); ++a) {
    const Allocation& alloc = slot.allocations[a];
    check(alloc.group < groups_.size(),
          "run_slot: workload references a UE group this scheduler was not built for");
    const u32 geometry = group_geometry_[alloc.group];
    const kern::MmseLayout& lay = geometries_[geometry].layout;
    const u32 capacity = lay.num_cores * lay.problems_per_core;
    for (u32 off = 0; off < alloc.num_problems(); off += capacity) {
      BatchTask t;
      t.allocation = a;
      t.offset = off;
      t.count = std::min(capacity, alloc.num_problems() - off);
      t.geometry = geometry;
      tasks.push_back(t);
    }
  }

  // ---- cluster fault plan: which clusters are alive this TTI ----
  // A dead cluster (FaultConfig::cluster_fail_tti) takes no work; its share
  // is reassigned to the survivors by the same (policy-aware) assignment
  // logic, and the slot is flagged degraded so the deadline accounting can
  // carry the impact.
  std::vector<u8> alive(cfg_.num_clusters, u8{1});
  for (u32 c = 0; c < cfg_.num_clusters; ++c) {
    if (cfg_.fault.cluster_dead(slot.tti, c)) {
      alive[c] = 0;
      result.dead_clusters.push_back(c);
      result.degraded = true;
    }
  }
  check(result.dead_clusters.size() < cfg_.num_clusters,
        "run_slot: all clusters dead - nothing can run this slot");

  // Serial up-front batch->cluster assignment (round-robin or locality; see
  // the header comment): fills trace[i].cluster and each cluster's ordered
  // queue, fixing residency transitions before any worker runs.
  result.trace.resize(tasks.size());
  batch_errors_scratch_.assign(tasks.size(), 0);
  const std::vector<std::vector<u32>> queue =
      assign_batches(tasks, slot, result.trace, alive);

  // ---- one task per cluster: workers claim whole clusters in turn ----
  // Each worker runs its claimed cluster's queue in the precomputed order,
  // so one host thread at a time owns a cluster's machine and counters. A
  // failing batch stops only its own cluster; after the join the lowest
  // failing cluster's error is rethrown, independent of host timing.
  const u32 n_workers = std::min(cfg_.host_threads, cfg_.num_clusters);
  std::vector<std::exception_ptr> failures(cfg_.num_clusters);
  std::atomic<u32> next_cluster{0};
  const auto worker = [&] {
    for (;;) {
      const u32 c = next_cluster.fetch_add(1);
      if (c >= cfg_.num_clusters) return;
      try {
        for (const u32 batch_index : queue[c])
          run_batch(clusters_[c], tasks[batch_index], slot, result, batch_index);
      } catch (...) {
        failures[c] = std::current_exception();
      }
    }
  };
  // A single worker is the calling thread. Several are all fresh threads
  // while the caller only joins: running one of them on the caller measured
  // slower (perfbench farm_busy on a 4-vCPU Xeon, median per-TTI host time
  // 2.5 vs 1.8 ms over 7 alternating runs).
  if (n_workers == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n_workers);
    for (u32 t = 0; t < n_workers; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  for (const std::exception_ptr& failure : failures)
    if (failure) std::rethrow_exception(failure);

  // ---- deterministic reduction over the trace (batch order) ----
  // Busy and critical-path accounting charge each batch its detection cycles
  // PLUS the modeled reload cycles of the program switch it forced, so the
  // reload overhead a policy pays is visible in latency and utilization.
  std::vector<std::vector<u64>> symbol_cycles(cfg_.num_clusters,
                                              std::vector<u64>(symbols, 0));
  for (u32 i = 0; i < result.trace.size(); ++i) {
    const BatchTrace& t = result.trace[i];
    const u64 busy_cycles = t.cycles + t.reload_cycles;
    result.errors += batch_errors_scratch_[i];
    result.allocation_errors[t.allocation] += batch_errors_scratch_[i];
    result.cluster_busy_cycles[t.cluster] += busy_cycles;
    result.cluster_batches[t.cluster] += 1;
    result.cluster_reloads[t.cluster] += t.reloads;
    result.cluster_reload_cycles[t.cluster] += t.reload_cycles;
    result.total_reloads += t.reloads;
    result.total_reload_cycles += t.reload_cycles;
    result.total_instructions += t.instructions;
#define TSIM_ADD_BATCH_FAULTS(f) result.f += t.f;
    TSIM_BATCH_FAULT_COUNTERS(TSIM_ADD_BATCH_FAULTS)
#undef TSIM_ADD_BATCH_FAULTS
    if (t.failed) {
      result.failed_batches += 1;
      result.degraded = true;
    }
    symbol_cycles[t.cluster][slot.allocations[t.allocation].symbol] += busy_cycles;
  }
  result.symbol_cycles.assign(symbols, 0);
  for (u32 s = 0; s < symbols; ++s) {
    for (u32 c = 0; c < cfg_.num_clusters; ++c) {
      result.symbol_cycles[s] = std::max(result.symbol_cycles[s], symbol_cycles[c][s]);
    }
  }
  // Slot critical path: OFDM symbols are data-serialized (symbol s+1's
  // samples arrive after symbol s), so the slot latency is the sum over
  // symbols of the per-symbol critical path - NOT the max of per-cluster
  // totals, which under-reports latency whenever symbol work is imbalanced
  // across clusters (the per-symbol maxima can sit on different clusters).
  // This keeps slot_cycles == sum(symbol_cycles) by construction, so the
  // slot and symbol reports in deadline.h stay consistent.
  result.slot_cycles = 0;
  for (const u64 cycles : result.symbol_cycles) result.slot_cycles += cycles;
  return result;
}

}  // namespace tsim::ran
