#include "workloads.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common/rng.h"
#include "dse/pareto.h"
#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "phy/channel.h"
#include "phy/qam.h"
#include "sim/cosim.h"
#include "sim/report.h"

namespace perfbench {

using namespace tsim;

namespace {

// ---- digests of the deterministic outputs ----------------------------------

/// Every SlotResult field that is a function of the inputs. Retired
/// instructions are left out when fast-forward is on: a shrunk batch
/// reports what the host executed, not what the modeled DUT ran.
void digest_slot(Digest& d, const ran::SlotResult& r, bool with_instructions) {
  d.u(r.tti);
  d.u(r.problems);
  d.u(r.bits);
  d.u(r.errors);
  d.u(r.detected_bits.size());
  for (const std::vector<u8>& bits : r.detected_bits) {
    d.u(bits.size());
    d.bytes(bits.data(), bits.size());
  }
  d.vec(r.allocation_errors);
  d.vec(r.cluster_busy_cycles);
  d.vec(r.cluster_batches);
  d.vec(r.cluster_reloads);
  d.vec(r.cluster_reload_cycles);
  d.u(r.total_reloads);
  d.u(r.total_reload_cycles);
  if (with_instructions) d.u(r.total_instructions);
  d.vec(r.symbol_cycles);
  d.u(r.slot_cycles);
  d.u(r.trace.size());
  for (const ran::BatchTrace& b : r.trace) {
    for (const u64 v : {u64{b.cluster}, u64{b.allocation}, u64{b.offset}, u64{b.count},
                        u64{b.geometry}, u64{b.reloads}, b.reload_cycles, b.cycles,
                        u64{b.hart_faults}, u64{b.ecc_corrected}, u64{b.ecc_detected},
                        u64{b.ecc_silent}, u64{b.failed}})
      d.u(v);
    if (with_instructions) d.u(b.instructions);
  }
  d.u(r.degraded);
  d.vec(r.dead_clusters);
  for (const u64 v : {r.failed_batches, r.hart_faults, r.ecc_corrected, r.ecc_detected,
                      r.ecc_silent})
    d.u(v);
}

void digest_report(Digest& d, const mac::CellReport& rep) {
  for (const std::string& field : mac::cell_report_row(rep)) d.str(field);
}

/// Every PointMetrics field except the host wall time.
u64 digest_point(const dse::PointMetrics& m) {
  Digest d;
  d.str(m.point.label());
  for (const u64 v : {u64{m.batch_cores}, m.problems, m.bits, m.errors, m.golden_errors,
                      m.instructions, m.slot_cycles, m.worst_slot_bits, m.reloads,
                      m.reload_cycles, m.busy_cycles})
    d.u(v);
  u64 deadline_bits = 0;
  std::memcpy(&deadline_bits, &m.deadline_seconds, sizeof deadline_bits);
  d.u(deadline_bits);
  return d.h;
}

/// Exact per-slot counters every workload reports.
void count_slot(Episode& ep, const ran::SlotResult& r) {
  for (const u32 b : r.cluster_batches) ep.batches += b;
  ep.reloads += r.total_reloads;
  ep.instructions += r.total_instructions;
  ep.worst_cycles = std::max(ep.worst_cycles, r.slot_cycles);
}

mac::FarmConfig quick_farm(u64 seed) {
  mac::FarmConfig cfg;
  cfg.seed = seed;
  cfg.carrier.bandwidth_hz = 2e6;  // 65 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.groups = ran::mixed_geometry_groups();
  cfg.harq.enabled = true;
  cfg.pool.fast_forward = true;  // farm_driver's default
  return cfg;
}

/// The pool run_sweep builds for `point` (cluster shape set separately,
/// since cluster_for_cores throws for infeasible points).
ran::ClusterPoolConfig sweep_pool(const dse::DesignPoint& point,
                                  const dse::SweepConfig& cfg) {
  ran::ClusterPoolConfig pool;
  pool.num_clusters = point.clusters;
  pool.host_threads = cfg.host_threads;
  pool.threads_per_cluster = cfg.threads_per_cluster;
  pool.prec = point.prec;
  pool.problems_per_core = point.problems_per_core;
  pool.policy = point.policy;
  return pool;
}

/// Replays dse::run_sweep call for call - the same warm-state hand-off -
/// with spans around traffic, golden reference, construction and slots.
void replay_sweep(const dse::DesignSpace& space, const dse::SweepConfig& cfg,
                  Tracer* tracer, Episode& ep,
                  std::vector<dse::SkippedPoint>& skipped) {
  Scope sweep(tracer, "dse.sweep");
  const double s0 = now_s();
  std::vector<ran::SlotWorkload> slots;
  u64 golden_errors = 0;
  {
    Scope setup(tracer, "setup");
    {
      Scope traffic(tracer, "ran.traffic");
      ran::TrafficGenerator gen(cfg.traffic);
      for (u32 t = 0; t < cfg.ttis; ++t) slots.push_back(gen.next_slot());
    }
    if (cfg.golden_ber) {
      Scope golden(tracer, "dse.golden");
      for (const ran::SlotWorkload& slot : slots)
        golden_errors += dse::golden_slot_errors(slot, cfg.traffic.groups);
    }
  }
  ep.setup_s = now_s() - s0;

  std::map<u64, ran::SlotScheduler::WarmState> warm_cache;
  for (const dse::DesignPoint& point : space.enumerate()) {
    Scope tti(tracer, "tti");
    ran::ClusterPoolConfig pool = sweep_pool(point, cfg);
    dse::PointMetrics m;
    m.point = point;
    m.deadline_seconds = cfg.traffic.carrier.numerology.slot_seconds();
    m.golden_errors = golden_errors;
    std::unique_ptr<ran::SlotScheduler> sched;
    try {
      Scope construct(tracer, "dse.construct");
      pool.cluster = dse::cluster_for_cores(point.cores_per_cluster);
      const ran::SlotScheduler::WarmState* warm = nullptr;
      u64 key = 0;
      if (cfg.warm_start) {
        key = ran::SlotScheduler::warm_key(pool, cfg.traffic.groups);
        const auto it = warm_cache.find(key);
        if (it != warm_cache.end()) warm = &it->second;
      }
      sched = std::make_unique<ran::SlotScheduler>(pool, cfg.traffic.groups, warm);
      ep.warm_hits += warm != nullptr ? 1 : 0;
      if (cfg.warm_start) {
        const auto it = warm_cache.find(key);
        if (it == warm_cache.end()) {
          warm_cache.emplace(key, sched->export_warm_state());
        } else if (!it->second.calibrated) {
          ran::SlotScheduler::WarmState ws = sched->export_warm_state();
          if (ws.calibrated) it->second = std::move(ws);
        }
      }
    } catch (const SimError& e) {
      skipped.push_back(dse::SkippedPoint{point, e.what()});
      continue;
    }
    m.batch_cores = sched->layout_for_group(0).num_cores;
    const double w0 = now_s();
    {
      Scope run(tracer, "ran.slot");
      for (const ran::SlotWorkload& slot : slots) {
        const ran::SlotResult res = sched->run_slot(slot);
        m.problems += res.problems;
        m.bits += res.bits;
        m.errors += res.errors;
        m.instructions += res.total_instructions;
        m.reloads += res.total_reloads;
        m.reload_cycles += res.total_reload_cycles;
        for (const u64 busy : res.cluster_busy_cycles) m.busy_cycles += busy;
        if (res.slot_cycles > m.slot_cycles) {
          m.slot_cycles = res.slot_cycles;
          m.worst_slot_bits = res.bits;
        }
      }
    }
    m.wall_seconds = now_s() - w0;
    ep.points.push_back(std::move(m));
  }
}

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFarmBusy: return "farm_busy";
    case Workload::kFarmIdle: return "farm_idle";
    case Workload::kSlotPaper: return "slot_paper";
    case Workload::kDseSweep: return "dse_sweep";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

// ---- configurations ---------------------------------------------------------

mac::FarmConfig farm_busy_config(u64 seed) {
  mac::FarmConfig cfg = quick_farm(seed);
  cfg.cells = 4;
  cfg.ues_per_cell = 16;
  cfg.ttis = 128;
  cfg.pool.num_clusters = 2;
  cfg.pool.host_threads = 2;
  return cfg;
}

mac::FarmConfig farm_idle_config(u64 seed, const std::string& snapshot_dir) {
  mac::FarmConfig cfg = quick_farm(seed);
  cfg.cells = 1;
  cfg.ues_per_cell = 4;
  cfg.ttis = 2048;
  // farm_driver --burst: on/off bursts with a diurnal on-rate.
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.5;
  cfg.burst.mean_on_slots = 8.0;
  cfg.burst.arrival_prob = 0.9;
  cfg.burst.diurnal_period_ttis = 50.0;
  cfg.burst.diurnal_depth = 0.5;
  cfg.pool.num_clusters = 1;
  cfg.pool.host_threads = 1;
  cfg.pool.cluster = dse::cluster_for_cores(64);
  cfg.pool.problems_per_core = 1;
  cfg.pool.batch_cores = 64;
  cfg.checkpoint_every = 64;
  cfg.checkpoint_dir = snapshot_dir;
  return cfg;
}

ran::TrafficConfig slot_paper_traffic(u64 seed) {
  ran::TrafficConfig traffic;
  traffic.carrier = phy::CarrierConfig::paper_50mhz();
  traffic.groups = {
      ran::UeGroup{"embb", 4, 4, 64, 22.0, phy::ChannelType::kRayleigh, 3.0},
      ran::UeGroup{"ctrl", 2, 4, 4, 10.0, phy::ChannelType::kAwgn, 1.0},
  };
  traffic.seed = seed;
  return traffic;
}

ran::ClusterPoolConfig slot_paper_pool() {
  ran::ClusterPoolConfig pool;
  pool.num_clusters = 2;
  pool.host_threads = 2;
  pool.cluster = tera::TeraPoolConfig::full();
  pool.prec = kern::Precision::k16CDotp;
  pool.problems_per_core = 4;
  pool.policy = ran::AssignPolicy::kLocality;
  return pool;
}

dse::DesignSpace dse_space() {
  dse::DesignSpace space;
  space.clusters = {1, 2, 4};
  space.cores_per_cluster = {16, 32, 64};
  space.precisions = {kern::Precision::k16Half, kern::Precision::k16WDotp,
                      kern::Precision::k16CDotp, kern::Precision::k8WDotp};
  space.problems_per_core = {1, 4};
  space.policies = {ran::AssignPolicy::kLocality};
  return space;
}

dse::SweepConfig dse_config(u64 seed) {
  dse::SweepConfig cfg;
  cfg.traffic.groups = ran::mixed_geometry_groups();
  cfg.traffic.carrier.bandwidth_hz = 10e6;  // 327 subcarriers
  cfg.traffic.carrier.symbols_per_slot = 4;
  cfg.traffic.seed = seed;
  cfg.ttis = 1;
  cfg.host_threads = 1;
  cfg.golden_ber = true;
  cfg.warm_start = true;
  return cfg;
}

// ---- episodes -----------------------------------------------------------------

Episode farm_busy_episode(const mac::FarmConfig& cfg, Tracer* tracer) {
  constexpr u32 kWindow = 32;  // TTIs per checked output
  Episode ep;
  std::vector<std::unique_ptr<mac::Cell>> cells;
  const double s0 = now_s();
  {
    Scope setup(tracer, "setup");
    for (u32 c = 0; c < cfg.cells; ++c)
      cells.push_back(std::make_unique<mac::Cell>(cfg.cell_config(c)));
  }
  ep.setup_s = now_s() - s0;

  // The split cannot advance Cell::ttis_run(), the one report field it
  // leaves behind; the loop knows the TTI count and stamps it.
  const auto report = [&](const mac::Cell& cell, u32 ttis) {
    mac::CellReport rep = cell.report();
    if (tracer != nullptr) rep.ttis = ttis;
    return rep;
  };

  std::vector<Digest> window(cfg.cells);
  for (u32 t = 0; t < cfg.ttis; ++t) {
    for (u32 c = 0; c < cfg.cells; ++c) {
      mac::Cell& cell = *cells[c];
      mac::SlotRequest req;
      const double u0 = now_s();
      if (tracer == nullptr) {
        cell.step(t);
      } else {
        Scope tti(tracer, "tti");
        mac::SlotIndication ind;
        {
          Scope s(tracer, "mac.request");
          req = cell.build_request(t);
        }
        {
          Scope s(tracer, "ran.slot");
          ind = cell.run_slot(req);
        }
        Scope s(tracer, "mac.feedback");
        cell.apply_indication(ind);
      }
      const double dt = now_s() - u0;
      ep.tti_s.push_back(dt);
      ep.loop_s.push_back(dt);
      if (tracer != nullptr) {
        Scope s(tracer, "ran.traffic");
        (void)cell.build_workload(req);
      }
      const ran::SlotResult& res = cell.slot_results().back();
      count_slot(ep, res);
      digest_slot(window[c], res, false);
      if ((t + 1) % kWindow == 0 || t + 1 == cfg.ttis) {
        digest_report(window[c], report(cell, t + 1));
        ep.items.emplace_back(sim::strf("cell%u.tti%u", c, t + 1), window[c].h);
        window[c] = Digest{};
      }
    }
  }
  for (const auto& cell : cells) {
    ep.reports.push_back(report(*cell, cfg.ttis));
    ep.idle_ttis += cell->ff_idle_ttis();
    const ran::SlotScheduler::FastForwardStats ff = cell->ff_batch_stats();
    ep.ff.full_batches += ff.full_batches;
    ep.ff.shrunk_batches += ff.shrunk_batches;
    ep.ff.cores_full += ff.cores_full;
    ep.ff.cores_run += ff.cores_run;
  }
  ep.ttis = u64{cfg.ttis} * cfg.cells;
  return ep;
}

Episode farm_idle_episode(const mac::FarmConfig& cfg, Tracer* tracer) {
  Episode ep;
  const mac::CellConfig cell_cfg = cfg.cell_config(0);
  const u32 every = cfg.checkpoint_every;
  std::unique_ptr<mac::Cell> cell;
  const double s0 = now_s();
  {
    Scope setup(tracer, "setup");
    cell = std::make_unique<mac::Cell>(cell_cfg);
  }
  ep.setup_s = now_s() - s0;

  Digest window;
  u64 last_snapshot = 0;  // 0 = none written yet
  mac::CellReport at_snapshot;
  for (u32 t = 0; t < cfg.ttis; ++t) {
    const bool checkpoint = (t + 1) % every == 0 && t + 1 < cfg.ttis;
    const u64 idle_before = cell->ff_idle_ttis();
    const double u0 = now_s();
    {
      Scope tti(tracer, "tti");
      const i32 step = tracer != nullptr ? tracer->open("mac.step") : -1;
      cell->step(t);
      ep.tti_s.push_back(now_s() - u0);
      if (tracer != nullptr)
        tracer->close(step, cell->ff_idle_ttis() != idle_before ? "mac.step.idle"
                                                                : "mac.step.busy");
      if (checkpoint) {
        Scope save(tracer, "sim.snapshot_save");
        mac::save_cell_snapshot(*cell, cfg.checkpoint_dir);
      }
    }
    ep.loop_s.push_back(now_s() - u0);

    const ran::SlotResult& res = cell->slot_results().back();
    count_slot(ep, res);
    digest_slot(window, res, false);
    if ((t + 1) % every == 0 || t + 1 == cfg.ttis) {
      const mac::CellReport rep = cell->report();
      digest_report(window, rep);
      ep.items.emplace_back(sim::strf("cell0.tti%u", t + 1), window.h);
      window = Digest{};
    }
    if (checkpoint) {
      const std::string path = mac::cell_snapshot_path(cfg.checkpoint_dir, 0, t + 1);
      ep.snapshot_kb.push_back(static_cast<double>(std::filesystem::file_size(path)) /
                               1024.0);
      if (last_snapshot != 0)
        std::filesystem::remove(
            mac::cell_snapshot_path(cfg.checkpoint_dir, 0, last_snapshot));
      last_snapshot = t + 1;
      at_snapshot = cell->report();
    }
  }

  // Restore the last snapshot into a fresh cell: its report must equal the
  // original's at that TTI, and running it on must end where the original
  // ended.
  if (last_snapshot != 0) {
    const std::string path =
        mac::cell_snapshot_path(cfg.checkpoint_dir, 0, last_snapshot);
    mac::Cell restored(cell_cfg);
    u64 resumed = 0;
    {
      Scope load(tracer, "sim.snapshot_load");
      resumed = mac::load_cell_snapshot(restored, path);
    }
    ep.self_checks += 2;
    if (resumed != last_snapshot || !(restored.report() == at_snapshot))
      ep.self_failed += 1;
    for (u64 t = resumed; t < cfg.ttis; ++t) restored.step(t);
    if (!(restored.report() == cell->report())) ep.self_failed += 1;
    std::filesystem::remove(path);
  }

  ep.reports.push_back(cell->report());
  ep.idle_ttis = cell->ff_idle_ttis();
  ep.ff = cell->ff_batch_stats();
  ep.ttis = cfg.ttis;
  return ep;
}

Episode slot_paper_episode(const ran::TrafficConfig& traffic,
                           const ran::ClusterPoolConfig& pool, u32 ttis,
                           Tracer* tracer) {
  Episode ep;
  std::unique_ptr<ran::TrafficGenerator> gen;
  std::unique_ptr<ran::SlotScheduler> sched;
  const double s0 = now_s();
  {
    Scope setup(tracer, "setup");
    gen = std::make_unique<ran::TrafficGenerator>(traffic);
    sched = std::make_unique<ran::SlotScheduler>(pool, traffic.groups);
  }
  ep.setup_s = now_s() - s0;
  for (u32 g = 0; g < traffic.groups.size(); ++g) {
    const u64 cost = sched->batch_cycles_for_group(g);
    ep.calibrated_geometries +=
        cost != 0 && cost != ran::SlotScheduler::kUncalibratedBatchCost ? 1 : 0;
  }

  for (u32 t = 0; t < ttis; ++t) {
    ran::SlotResult res;
    const double u0 = now_s();
    {
      Scope tti(tracer, "tti");
      ran::SlotWorkload slot;
      {
        Scope s(tracer, "ran.traffic");
        slot = gen->slot(t);
      }
      Scope s(tracer, "ran.slot");
      res = sched->run_slot(slot);
    }
    const double dt = now_s() - u0;
    ep.tti_s.push_back(dt);
    ep.loop_s.push_back(dt);
    count_slot(ep, res);
    Digest d;
    digest_slot(d, res, true);
    ep.items.emplace_back(sim::strf("tti%u", t), d.h);
  }
  ep.ff = sched->fast_forward_stats();
  ep.ttis = ttis;
  return ep;
}

Episode dse_episode(const dse::DesignSpace& space, const dse::SweepConfig& cfg,
                    Tracer* tracer) {
  Episode ep;
  std::vector<dse::SkippedPoint> skipped;
  double sweep_s = 0.0;
  if (tracer != nullptr) {
    const double t0 = now_s();
    replay_sweep(space, cfg, tracer, ep, skipped);
    sweep_s = now_s() - t0;
  } else {
    // run_sweep does this point-independent work first, inside its wall
    // time; it is repeated here through the same public calls to time the
    // sweep's set-up on its own.
    const double s0 = now_s();
    ran::TrafficGenerator gen(cfg.traffic);
    for (u32 t = 0; t < cfg.ttis; ++t) {
      const ran::SlotWorkload slot = gen.next_slot();
      if (cfg.golden_ber) (void)dse::golden_slot_errors(slot, cfg.traffic.groups);
    }
    ep.setup_s = now_s() - s0;

    const double t0 = now_s();
    dse::SweepResult result = dse::run_sweep(space, cfg);
    sweep_s = now_s() - t0;
    ep.points = std::move(result.points);
    skipped = std::move(result.skipped);
    // Warm-start reuse, from the keys run_sweep caches on.
    std::set<u64> seen;
    for (const dse::PointMetrics& m : ep.points) {
      ran::ClusterPoolConfig pool = sweep_pool(m.point, cfg);
      pool.cluster = dse::cluster_for_cores(m.point.cores_per_cluster);
      if (!seen.insert(ran::SlotScheduler::warm_key(pool, cfg.traffic.groups)).second)
        ++ep.warm_hits;
    }
  }
  std::vector<u32> front;
  {
    Scope pareto(tracer, "dse.pareto");
    front = dse::pareto_front(ep.points, dse::default_objectives());
  }

  for (size_t i = 0; i < ep.points.size(); ++i) {
    const dse::PointMetrics& m = ep.points[i];
    ep.items.emplace_back(sim::strf("p%02zu.", i) + m.point.label(), digest_point(m));
    ep.tti_s.push_back(m.wall_seconds);
    ep.loop_s.push_back(m.wall_seconds);
    sweep_s -= m.wall_seconds;
    ep.worst_cycles = std::max(ep.worst_cycles, m.slot_cycles);
    ep.instructions += m.instructions;
    ep.reloads += m.reloads;
    ep.ber_gap = std::max(ep.ber_gap, std::abs(m.dut_ber() - m.golden_ber()));
  }
  for (const dse::SkippedPoint& s : skipped) {
    Digest d;
    d.str(s.reason);
    ep.items.emplace_back("skipped." + s.point.label(), d.h);
  }
  Digest f;
  f.vec(front);
  ep.items.emplace_back("pareto_front", f.h);
  ep.ttis = ep.points.size() * u64{cfg.ttis};
  ep.loop_s.push_back(std::max(sweep_s, 0.0));  // construction and the rest
  return ep;
}

Episode run_episode(Workload w, u64 seed, const std::string& scratch_dir,
                    Tracer* tracer) {
  switch (w) {
    case Workload::kFarmBusy:
      return farm_busy_episode(farm_busy_config(seed), tracer);
    case Workload::kFarmIdle:
      return farm_idle_episode(farm_idle_config(seed, scratch_dir), tracer);
    case Workload::kSlotPaper:
      return slot_paper_episode(slot_paper_traffic(seed), slot_paper_pool(),
                                kSlotPaperTtis, tracer);
    case Workload::kDseSweep:
      return dse_episode(dse_space(), dse_config(seed), tracer);
  }
  throw SimError("run_episode: unknown workload");
}

// ---- ISS probe ------------------------------------------------------------------

namespace {

/// The pool of the workload's main layout, with its UE groups in `groups`
/// (dse_sweep: the widest cluster at 16b complex dot product, 4 problems/core).
ran::ClusterPoolConfig main_pool(Workload w, u64 seed, std::vector<ran::UeGroup>* groups) {
  switch (w) {
    case Workload::kFarmBusy:
    case Workload::kFarmIdle: {
      const mac::FarmConfig cfg =
          w == Workload::kFarmBusy ? farm_busy_config(seed) : farm_idle_config(seed, "");
      *groups = cfg.groups;
      return cfg.pool;
    }
    case Workload::kSlotPaper:
      *groups = slot_paper_traffic(seed).groups;
      return slot_paper_pool();
    case Workload::kDseSweep: {
      // The sweep's widest cluster at the paper's precision and batching.
      const dse::SweepConfig cfg = dse_config(seed);
      ran::ClusterPoolConfig pool = sweep_pool(
          dse::DesignPoint{1, 64, kern::Precision::k16CDotp, 4, ran::AssignPolicy::kLocality},
          cfg);
      pool.cluster = dse::cluster_for_cores(64);
      *groups = cfg.traffic.groups;
      return pool;
    }
  }
  throw SimError("main_pool: unknown workload");
}

}  // namespace

u32 pool_threads(Workload w) {
  std::vector<ran::UeGroup> groups;
  const ran::ClusterPoolConfig pool = main_pool(w, 0, &groups);
  return std::min(pool.host_threads, pool.num_clusters);
}

IssProbe iss_probe(Workload w, u64 seed, double seconds) {
  std::vector<ran::UeGroup> groups;
  ran::ClusterPoolConfig pool = main_pool(w, seed, &groups);
  pool.num_clusters = 1;  // only the layout is needed
  const kern::MmseLayout lay = ran::SlotScheduler(pool, groups).layout_for_group(0);

  iss::Machine machine(pool.cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(kern::build_mmse_program(lay));
  const ran::UeGroup& g = groups[0];
  const phy::Channel channel(g.channel, g.nrx, g.ntx);
  const phy::QamModulator qam(g.qam_order);
  Rng rng(Rng::derive_seed(seed, {0x155}));
  const sim::Batch batch = sim::generate_batch(
      channel, qam, g.ntx, lay.num_cores * lay.problems_per_core, g.snr_db, rng);
  for (u32 i = 0; i < lay.num_cores * lay.problems_per_core; ++i)
    sim::stage_problem(machine.memory(), lay, i / lay.problems_per_core,
                       i % lay.problems_per_core, batch.problems[i]);

  const auto run_once = [&] {
    machine.reset_harts();
    const iss::RunResult res = machine.run();
    check(res.exited && !res.deadlock, "iss_probe: batch run did not complete");
    return res.instructions;
  };
  run_once();  // first touch and translation
  machine.reset_batch_stats();
  u64 instructions = 0;
  const double t0 = now_s();
  do {
    instructions += run_once();
  } while (now_s() - t0 < seconds);
  const double elapsed = now_s() - t0;

  IssProbe probe;
  probe.harts = lay.num_cores;
  probe.mips = seconds > 0.0 ? static_cast<double>(instructions) / elapsed / 1e6 : 0.0;
  probe.lockstep_frac = machine.batch_stats().lockstep_fraction();
  probe.avg_width = machine.batch_stats().avg_width();
  return probe;
}

}  // namespace perfbench
