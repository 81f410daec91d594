#include "mac/cell.h"

#include <bit>
#include <cmath>

#include "common/error.h"
#include "sim/cosim.h"

namespace tsim::mac {

namespace {
// Rng::keyed stream domains of one cell. Disjoint tags keep burst
// transitions, arrival draws and payload generation on independent streams
// no matter how many draws each consumes.
constexpr u64 kCellStream = 0xCE11;
constexpr u64 kBurstInitStream = 0xB125;
constexpr u64 kBurstStream = 0xB127;
constexpr u64 kArrivalStream = 0xA221;
constexpr u64 kPayloadStream = 0xFA7;

/// validate() before any member that derives from the config is built.
const CellConfig& validated(const CellConfig& cfg) {
  cfg.validate();
  return cfg;
}

/// The cell's fault plan: the farm-level FaultConfig re-seeded with the
/// per-cell fault seed, so cells draw independent fault streams.
sim::FaultConfig cell_fault(const CellConfig& cfg) {
  sim::FaultConfig f = cfg.fault;
  f.seed = cfg.fault.cell_fault_seed(cfg.cell);
  return f;
}

/// The cell's cluster-pool config with the fault plan installed. A fault
/// plan set directly on cfg.pool.fault (scheduler-level tests) is left
/// alone when the cell-level plan is disabled.
ran::ClusterPoolConfig pool_with_fault(const CellConfig& cfg) {
  ran::ClusterPoolConfig pool = cfg.pool;
  if (cfg.fault.enabled) pool.fault = cell_fault(cfg);
  return pool;
}
}  // namespace

void BurstConfig::validate() const {
  if (!enabled) return;
  check(duty > 0.0 && duty < 1.0, "BurstConfig: duty must be in (0, 1)");
  check(mean_on_slots >= 1.0, "BurstConfig: mean_on_slots must be >= 1");
  check(arrival_prob > 0.0 && arrival_prob <= 1.0,
        "BurstConfig: arrival_prob must be in (0, 1]");
  check(diurnal_period_ttis >= 0.0, "BurstConfig: negative diurnal period");
  check(diurnal_depth >= 0.0 && diurnal_depth <= 1.0,
        "BurstConfig: diurnal_depth must be in [0, 1]");
}

double BurstConfig::p_on(u64 tti) const {
  // Two-state Markov chain: stationary duty d with P(on->off) = 1/mean_on
  // gives P(off->on) = p_off * d / (1 - d). The diurnal term modulates the
  // on-rate (not the off-rate), so burst lengths stay put while the number
  // of active UEs swells and ebbs over the configured period.
  double p = p_off() * duty / (1.0 - duty);
  if (diurnal_period_ttis > 0.0) {
    const double phase =
        2.0 * M_PI * static_cast<double>(tti) / diurnal_period_ttis;
    p *= 1.0 + diurnal_depth * std::sin(phase);
  }
  return std::min(1.0, std::max(0.0, p));
}

void CellConfig::validate() const {
  check(num_ues >= 1, "CellConfig: need at least one UE");
  check(!groups.empty(), "CellConfig: need at least one UE group");
  check(carrier.num_subcarriers() > 0, "CellConfig: carrier has no subcarriers");
  check(sc_per_pdu >= 1 && sc_per_pdu <= carrier.num_subcarriers(),
        "CellConfig: sc_per_pdu must fit within one symbol");
  check(clock_hz > 0.0, "CellConfig: clock must be positive");
  harq.validate();
  burst.validate();
  pool.validate();
  fault.validate();
  if (fault.enabled && fault.cluster_fail_tti != sim::FaultConfig::kNever) {
    check(fault.cluster_fail_id < pool.num_clusters,
          "CellConfig: fault.cluster_fail_id out of range");
    check(pool.num_clusters >= 2,
          "CellConfig: cluster failure needs a survivor cluster");
  }
}

u64 CellConfig::cell_seed() const {
  return Rng::derive_seed(farm_seed, {kCellStream, cell});
}

Cell::Cell(const CellConfig& cfg)
    : cfg_(validated(cfg)), seed_(cfg.cell_seed()), fault_(cell_fault(cfg)),
      scheduler_(pool_with_fault(cfg), cfg.groups) {
  ues_.reserve(cfg_.num_ues);
  for (u32 ue = 0; ue < cfg_.num_ues; ++ue) {
    const u32 group = ue % static_cast<u32>(cfg_.groups.size());
    ues_.emplace_back(group, cfg_.harq);
    // Initial burst state drawn at the stationary duty so the population
    // starts in steady state rather than ramping from all-on.
    if (cfg_.burst.enabled) {
      Rng rng = Rng::keyed(seed_, {kBurstInitStream, ue});
      ues_.back().on = rng.uniform() < cfg_.burst.duty;
    }
  }
  channels_.reserve(cfg_.groups.size());
  mods_.reserve(cfg_.groups.size());
  for (const ran::UeGroup& g : cfg_.groups) {
    channels_.emplace_back(g.channel, g.nrx, g.ntx);
    mods_.emplace_back(g.qam_order);
  }
}

u64 Cell::pdu_bits(u32 ue) const {
  const ran::UeGroup& g = cfg_.groups[ues_[ue].group];
  return static_cast<u64>(cfg_.sc_per_pdu) * g.ntx *
         mods_[ues_[ue].group].bits_per_symbol();
}

void Cell::update_burst_states(u64 tti) {
  if (!cfg_.burst.enabled || tti == last_burst_tti_) return;
  last_burst_tti_ = tti;
  for (u32 ue = 0; ue < cfg_.num_ues; ++ue) {
    Rng rng = Rng::keyed(seed_, {kBurstStream, tti, ue});
    const double draw = rng.uniform();
    if (ues_[ue].on) {
      if (draw < cfg_.burst.p_off()) ues_[ue].on = false;
    } else {
      if (draw < cfg_.burst.p_on(tti)) ues_[ue].on = true;
    }
  }
}

bool Cell::quiescent() const {
  if (!delayed_.empty() || fault_.any_indication_faults()) return false;
  for (const Ue& ue : ues_) {
    if (ue.on || ue.harq.pending_retx().has_value() ||
        ue.harq.unresolved() != 0)
      return false;
  }
  return true;
}

SlotRequest Cell::build_request(u64 tti) {
  update_burst_states(tti);

  SlotRequest req;
  req.cell = cfg_.cell;
  req.tti = tti;

  const u32 pdus_per_symbol = cfg_.carrier.num_subcarriers() / cfg_.sc_per_pdu;
  const u32 capacity = pdus_per_symbol * cfg_.carrier.symbols_per_slot;
  u32 used = 0;
  const auto place = [&](u32 ue, u32 pid, bool new_data, u32 transmission) {
    PduDescriptor p;
    p.ue = ue;
    p.harq_process = pid;
    p.new_data = new_data;
    p.transmission = transmission;
    p.group = ues_[ue].group;
    p.symbol = used / pdus_per_symbol;
    p.first_subcarrier = (used % pdus_per_symbol) * cfg_.sc_per_pdu;
    p.num_subcarriers = cfg_.sc_per_pdu;
    p.effective_snr_db = phy::Channel::chase_combined_snr_db(
        cfg_.groups[p.group].snr_db, transmission);
    p.pdu_bits = pdu_bits(ue);
    req.pdus.push_back(p);
    ++used;
  };

  // UE visit order rotates by one position per TTI so capacity pressure is
  // spread fairly over the population instead of starving high ids.
  const u32 start = static_cast<u32>(tti % cfg_.num_ues);
  std::vector<u8> granted(cfg_.num_ues, 0);  // one PDU per UE per slot

  // Pass 1: pending retransmissions (highest priority - they hold soft
  // buffers and block their HARQ process until resolved).
  for (u32 k = 0; k < cfg_.num_ues && used < capacity; ++k) {
    const u32 ue = (start + k) % cfg_.num_ues;
    const std::optional<u32> pid = ues_[ue].harq.pending_retx();
    if (!pid.has_value()) continue;
    const u32 transmission = ues_[ue].harq.grant_retx(*pid, tti);
    granted[ue] = 1;
    place(ue, *pid, false, transmission);
  }

  // Pass 2: new data for active UEs with a firing arrival, while capacity
  // lasts. An arrival that finds every HARQ process busy is a stall
  // (counted by the entity); an arrival beyond the slot's capacity is
  // simply not offered this TTI.
  for (u32 k = 0; k < cfg_.num_ues && used < capacity; ++k) {
    const u32 ue = (start + k) % cfg_.num_ues;
    if (granted[ue] != 0 || !ues_[ue].on) continue;
    if (cfg_.burst.enabled && cfg_.burst.arrival_prob < 1.0) {
      Rng rng = Rng::keyed(seed_, {kArrivalStream, tti, ue});
      if (rng.uniform() >= cfg_.burst.arrival_prob) continue;
    }
    const std::optional<u32> pid = ues_[ue].harq.start_new_data(pdu_bits(ue), tti);
    if (!pid.has_value()) continue;  // all processes busy: stall recorded
    granted[ue] = 1;
    place(ue, *pid, true, 1);
  }
  return req;
}

ran::SlotWorkload Cell::build_workload(const SlotRequest& req) const {
  ran::SlotWorkload slot;
  slot.tti = req.tti;
  slot.allocations.reserve(req.pdus.size());
  for (const PduDescriptor& p : req.pdus) {
    // Payload stream keyed by grid identity: any host process generating
    // this (tti, symbol, subcarrier) allocation draws the same bits.
    Rng rng = Rng::keyed(seed_, {kPayloadStream, req.tti, p.symbol,
                                 p.first_subcarrier});
    ran::Allocation a;
    a.group = p.group;
    a.symbol = p.symbol;
    a.first_subcarrier = p.first_subcarrier;
    a.batch = sim::generate_batch(channels_[p.group], mods_[p.group],
                                  cfg_.groups[p.group].ntx, p.num_subcarriers,
                                  p.effective_snr_db, rng);
    slot.allocations.push_back(std::move(a));
  }
  return slot;
}

SlotIndication Cell::run_slot(const SlotRequest& req) {
  SlotIndication ind;
  ind.cell = req.cell;
  ind.tti = req.tti;

  if (req.pdus.empty()) {
    // Idle slot: nothing reaches L1; record an empty result so latency
    // percentiles and miss counts still see one entry per TTI.
    ran::SlotResult empty;
    empty.tti = req.tti;
    results_.push_back(std::move(empty));
    return ind;
  }

  const ran::SlotWorkload slot = build_workload(req);
  ran::SlotResult result = scheduler_.run_slot(slot);
  check(result.allocation_errors.size() == req.pdus.size(),
        "Cell: allocation outcomes do not match the slot request");

  ind.crcs.reserve(req.pdus.size());
  for (size_t i = 0; i < req.pdus.size(); ++i) {
    CrcResult c;
    c.ue = req.pdus[i].ue;
    c.harq_process = req.pdus[i].harq_process;
    c.bit_errors = result.allocation_errors[i];
    c.bits = req.pdus[i].pdu_bits;
    c.crc_pass = c.bit_errors == 0;
    ind.crcs.push_back(c);
  }
  ind.slot_cycles = result.slot_cycles;
  ind.deadline_met = static_cast<double>(result.slot_cycles) / cfg_.clock_hz <=
                     cfg_.carrier.numerology.slot_seconds();

  // Keep a slim copy for the aggregate report: cycle/reload/error totals
  // stay, per-bit payloads and per-batch traces go.
  result.detected_bits.clear();
  result.detected_bits.shrink_to_fit();
  result.trace.clear();
  result.trace.shrink_to_fit();
  results_.push_back(std::move(result));
  return ind;
}

void Cell::apply_indication(const SlotIndication& ind) {
  const bool guarded =
      fault_.any_indication_faults() || cfg_.harq.feedback_timeout_slots > 0;
  for (const CrcResult& c : ind.crcs) {
    check(c.ue < ues_.size(), "Cell: CRC indication for an unknown UE");
    HarqEntity& harq = ues_[c.ue].harq;
    if (guarded) {
      // Stale-feedback guard: a delayed indication must only resolve the
      // attempt it belongs to - the timeout may already have NACKed the
      // attempt (and a later grant re-used the process). On the clean path
      // the attempt's sent TTI always matches, so the guard never fires.
      if (!harq.in_flight(c.harq_process) ||
          harq.sent_tti(c.harq_process) != ind.tti)
        continue;
    }
    harq.on_feedback(c.harq_process, c.crc_pass);
    crc_fail_ += c.crc_pass ? 0 : 1;
  }
}

void Cell::step(u64 tti) {
  // Deliver fault-delayed indications that are due, in insertion order,
  // before this TTI's scheduling decision (their ACKs free HARQ processes
  // the new request can use).
  if (!delayed_.empty()) {
    std::vector<DelayedInd> keep;
    keep.reserve(delayed_.size());
    for (DelayedInd& d : delayed_) {
      if (d.due_tti <= tti) {
        apply_indication(d.ind);
      } else {
        keep.push_back(std::move(d));
      }
    }
    delayed_ = std::move(keep);
  }

  // Fast-forward: a quiescent TTI (diurnal trough) provably runs the whole
  // loop below with zero side effects beyond archiving one empty SlotResult
  // - build_request grants nothing, run_slot never reaches L1, the empty
  // indication resolves nothing, and with nothing in flight the timeout
  // sweep is a no-op. Short-circuit to exactly that archive. Burst
  // transitions still advance first (quiescence is a property of this TTI's
  // post-transition state); the draw is identity-keyed, so the chain is
  // unaffected by which path consumed it.
  if (cfg_.pool.fast_forward) {
    update_burst_states(tti);
    if (quiescent()) {
      ran::SlotResult empty;
      empty.tti = tti;
      results_.push_back(std::move(empty));
      ++ff_idle_ttis_;
      ++ttis_run_;
      return;
    }
  }

  const SlotRequest req = build_request(tti);
  const SlotIndication ind = run_slot(req);

  // FAPI transport fault: this TTI's indication can be lost or postponed
  // (drawn per TTI from the cell's fault stream). The HARQ feedback timeout
  // below absorbs the loss.
  const sim::IndicationFaultDraw draw = sim::draw_indication_fault(fault_, tti);
  if (draw.drop) {
    dropped_ind_ += 1;
  } else if (draw.delay > 0) {
    delayed_ind_ += 1;
    delayed_.push_back(DelayedInd{tti + draw.delay, ind});
  } else {
    apply_indication(ind);
  }

  // Resolve attempts whose feedback is overdue as NACKs (no-op with the
  // timeout disabled).
  if (cfg_.harq.feedback_timeout_slots > 0) {
    for (Ue& ue : ues_) ue.harq.expire_overdue(tti);
  }
  ++ttis_run_;
}

namespace {
constexpr u32 kCellTag = 0x314C4543;  // "CEL1"

void save_slot_result(sim::SnapshotWriter& w, const ran::SlotResult& s) {
  // Stored results are the slim copies (run_slot strips detected_bits and
  // trace before archiving), so those two fields are not serialized.
  check(s.detected_bits.empty() && s.trace.empty(),
        "Cell snapshot: stored SlotResult is not slim");
  w.write_u64(s.tti);
  w.write_u64(s.problems);
  w.write_u64(s.bits);
  w.write_u64(s.errors);
  w.write_vec_u64(s.allocation_errors);
  w.write_vec_u64(s.cluster_busy_cycles);
  w.write_vec_u32(s.cluster_batches);
  w.write_vec_u32(s.cluster_reloads);
  w.write_vec_u64(s.cluster_reload_cycles);
  w.write_u64(s.total_reloads);
  w.write_u64(s.total_reload_cycles);
  w.write_u64(s.total_instructions);
  w.write_vec_u64(s.symbol_cycles);
  w.write_u64(s.slot_cycles);
  w.write_bool(s.degraded);
  w.write_vec_u32(s.dead_clusters);
#define TSIM_SAVE_FAULTS(f) w.write_u64(s.f);
  TSIM_SLOT_FAULT_COUNTERS(TSIM_SAVE_FAULTS)
#undef TSIM_SAVE_FAULTS
}

ran::SlotResult load_slot_result(sim::SnapshotReader& r) {
  ran::SlotResult s;
  s.tti = r.read_u64();
  s.problems = r.read_u64();
  s.bits = r.read_u64();
  s.errors = r.read_u64();
  s.allocation_errors = r.read_vec_u64();
  s.cluster_busy_cycles = r.read_vec_u64();
  s.cluster_batches = r.read_vec_u32();
  s.cluster_reloads = r.read_vec_u32();
  s.cluster_reload_cycles = r.read_vec_u64();
  s.total_reloads = r.read_u64();
  s.total_reload_cycles = r.read_u64();
  s.total_instructions = r.read_u64();
  s.symbol_cycles = r.read_vec_u64();
  s.slot_cycles = r.read_u64();
  s.degraded = r.read_bool();
  s.dead_clusters = r.read_vec_u32();
#define TSIM_LOAD_FAULTS(f) s.f = r.read_u64();
  TSIM_SLOT_FAULT_COUNTERS(TSIM_LOAD_FAULTS)
#undef TSIM_LOAD_FAULTS
  return s;
}
}  // namespace

u64 Cell::config_fingerprint() const {
  u64 h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mixd = [&mix](double d) { mix(std::bit_cast<u64>(d)); };
  mix(cfg_.cell);
  mix(cfg_.farm_seed);
  mix(cfg_.num_ues);
  mix(cfg_.sc_per_pdu);
  mixd(cfg_.carrier.bandwidth_hz);
  mix(cfg_.carrier.numerology.mu);
  mixd(cfg_.carrier.guard_fraction);
  mix(cfg_.carrier.num_subcarriers());
  mix(cfg_.carrier.symbols_per_slot);
  mixd(cfg_.clock_hz);
  mix(cfg_.groups.size());
  for (const ran::UeGroup& g : cfg_.groups) {
    mix(g.ntx);
    mix(g.nrx);
    mix(g.qam_order);
    mixd(g.snr_db);
    mix(static_cast<u64>(g.channel));
    mixd(g.weight);
  }
  mix(cfg_.harq.num_processes);
  mix(cfg_.harq.max_attempts);
  mix(cfg_.harq.enabled ? 1 : 0);
  mix(cfg_.harq.feedback_timeout_slots);
  mix(cfg_.burst.enabled ? 1 : 0);
  mixd(cfg_.burst.duty);
  mixd(cfg_.burst.mean_on_slots);
  mixd(cfg_.burst.arrival_prob);
  mixd(cfg_.burst.diurnal_period_ttis);
  mixd(cfg_.burst.diurnal_depth);
  mix(cfg_.pool.num_clusters);
  mix(static_cast<u64>(cfg_.pool.prec));
  mix(cfg_.pool.problems_per_core);
  mix(cfg_.pool.batch_cores);
  mix(static_cast<u64>(cfg_.pool.policy));
  mix(cfg_.fault.enabled ? 1 : 0);
  mix(cfg_.fault.seed);
  mixd(cfg_.fault.hart_trap_rate);
  mixd(cfg_.fault.hart_hang_rate);
  mixd(cfg_.fault.l1_flip_rate);
  mixd(cfg_.fault.l1_double_bit_fraction);
  mix(cfg_.fault.ecc ? 1 : 0);
  mix(cfg_.fault.cluster_fail_tti);
  mix(cfg_.fault.cluster_fail_id);
  mixd(cfg_.fault.drop_indication_rate);
  mixd(cfg_.fault.delay_indication_rate);
  mix(cfg_.fault.delay_slots);
  return h;
}

void Cell::save_state(sim::SnapshotWriter& w) const {
  w.tag(kCellTag);
  w.write_u64(config_fingerprint());
  w.write_u32(ttis_run_);
  w.write_u64(crc_fail_);
  w.write_u64(dropped_ind_);
  w.write_u64(delayed_ind_);

  w.write_u64(ues_.size());
  for (const Ue& ue : ues_) {
    w.write_u32(ue.group);
    w.write_bool(ue.on);
    ue.harq.save_state(w);
  }

  w.write_u64(delayed_.size());
  for (const DelayedInd& d : delayed_) {
    w.write_u64(d.due_tti);
    w.write_u32(d.ind.cell);
    w.write_u64(d.ind.tti);
    w.write_u64(d.ind.slot_cycles);
    w.write_bool(d.ind.deadline_met);
    w.write_u64(d.ind.crcs.size());
    for (const CrcResult& c : d.ind.crcs) {
      w.write_u32(c.ue);
      w.write_u32(c.harq_process);
      w.write_bool(c.crc_pass);
      w.write_u64(c.bit_errors);
      w.write_u64(c.bits);
    }
  }

  w.write_u64(results_.size());
  for (const ran::SlotResult& s : results_) save_slot_result(w, s);

  scheduler_.save_state(w);
}

void Cell::restore_state(sim::SnapshotReader& r) {
  r.expect_tag(kCellTag, "Cell");
  if (r.read_u64() != config_fingerprint())
    r.fail("snapshot was captured under a different cell configuration");
  ttis_run_ = r.read_u32();
  crc_fail_ = r.read_u64();
  dropped_ind_ = r.read_u64();
  delayed_ind_ = r.read_u64();

  if (r.read_u64() != ues_.size()) r.fail("UE population size mismatch");
  for (Ue& ue : ues_) {
    const u32 group = r.read_u32();
    if (group != ue.group) r.fail("UE group assignment mismatch");
    ue.on = r.read_bool();
    ue.harq.restore_state(r);
  }

  const u64 ndelayed = r.read_u64();
  delayed_.clear();
  for (u64 i = 0; i < ndelayed; ++i) {
    DelayedInd d;
    d.due_tti = r.read_u64();
    d.ind.cell = r.read_u32();
    d.ind.tti = r.read_u64();
    d.ind.slot_cycles = r.read_u64();
    d.ind.deadline_met = r.read_bool();
    const u64 ncrcs = r.read_u64();
    d.ind.crcs.reserve(ncrcs);
    for (u64 k = 0; k < ncrcs; ++k) {
      CrcResult c;
      c.ue = r.read_u32();
      c.harq_process = r.read_u32();
      c.crc_pass = r.read_bool();
      c.bit_errors = r.read_u64();
      c.bits = r.read_u64();
      if (c.ue >= ues_.size()) r.fail("delayed indication targets unknown UE");
      d.ind.crcs.push_back(c);
    }
    delayed_.push_back(std::move(d));
  }

  const u64 nresults = r.read_u64();
  results_.clear();
  results_.reserve(nresults);
  for (u64 i = 0; i < nresults; ++i) results_.push_back(load_slot_result(r));

  scheduler_.restore_state(r);
}

CellReport Cell::report() const {
  CellReport rep;
  rep.cell = cfg_.cell;
  rep.ues = cfg_.num_ues;
  rep.ttis = ttis_run_;
  for (const Ue& ue : ues_) {
    rep.harq += ue.harq.stats();
    rep.unresolved += ue.harq.unresolved();
  }
  rep.pdus = rep.harq.transmissions();
  rep.crc_fail = crc_fail_;

  const ran::AggregateReport agg =
      ran::aggregate_report(results_, cfg_.carrier, cfg_.clock_hz);
  rep.bits = agg.total_bits;
  rep.errors = agg.total_errors;
  rep.slots = agg.slots;
  rep.misses = agg.misses;
  rep.worst_cycles = agg.worst_cycles;
  rep.p50_cycles = agg.p50_cycles;
  rep.p99_cycles = agg.p99_cycles;
  rep.reloads = agg.reloads;
  rep.reload_cycles = agg.reload_cycles;
  rep.dropped_ind = dropped_ind_;
  rep.delayed_ind = delayed_ind_;
  rep.degraded_slots = agg.degraded_slots;
#define TSIM_COPY_FAULTS(f) rep.f = agg.f;
  TSIM_BATCH_FAULT_COUNTERS(TSIM_COPY_FAULTS)
#undef TSIM_COPY_FAULTS
  return rep;
}

}  // namespace tsim::mac
