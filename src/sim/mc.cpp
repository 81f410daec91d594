#include "sim/mc.h"

#include "phy/ber.h"
#include "phy/mmse.h"
#include "phy/quantize.h"

namespace tsim::sim {

McRunner::McRunner(const McConfig& cfg)
    : cfg_(cfg), channel_(cfg.channel, cfg.nrx, cfg.ntx), qam_(cfg.qam_order) {}

McRunner::DutContext& McRunner::context_for(kern::Precision prec) {
  auto& slot = contexts_[static_cast<size_t>(prec)];
  if (!slot.has_value()) {
    kern::MmseLayout lay;
    lay.ntx = cfg_.ntx;
    lay.nrx = cfg_.nrx;
    lay.prec = prec;
    lay.problems_per_core = cfg_.problems_per_core;
    lay.cluster = cfg_.cluster;
    u32 cores = cfg_.batch_cores;
    if (cores == 0) {
      // Fit within L1: max_parallel_cores assumes 1 problem/core, so scale.
      const u32 fit = kern::MmseLayout::max_parallel_cores(cfg_.cluster, cfg_.ntx,
                                                           cfg_.nrx, prec);
      cores = std::max(1u, fit / std::max(1u, cfg_.problems_per_core));
    }
    lay.num_cores = std::min(cores, cfg_.cluster.num_cores());
    lay.validate();

    DutContext ctx;
    ctx.layout = lay;
    ctx.machine = std::make_unique<iss::Machine>(cfg_.cluster, iss::TimingConfig{},
                                                 lay.num_cores);
    ctx.machine->load_program(kern::build_mmse_program(lay));
    slot = std::move(ctx);
  }
  return *slot;
}

BerPoint McRunner::golden_point(double snr_db) {
  Rng rng(cfg_.seed ^ 0x60'1D'E0ull);
  phy::BerCounter ber;
  const u32 batch = 64;
  while (ber.errors() < cfg_.target_errors && ber.bits() < cfg_.max_bits) {
    Rng stream = rng.split(ber.bits() + 1);
    const Batch b = generate_batch(channel_, qam_, cfg_.ntx, batch, snr_db, stream);
    for (u32 p = 0; p < batch; ++p) {
      const auto& prob = b.problems[p];
      const auto xhat = phy::mmse_detect(prob.h, prob.y, prob.sigma2);
      const auto rx_bits = qam_.demap_sequence(xhat);
      const size_t nb = rx_bits.size();
      ber.add(std::span(b.tx_bits).subspan(p * nb, nb), rx_bits);
    }
  }
  return {snr_db, ber.ber(), ber.bits(), ber.errors()};
}

BerPoint McRunner::dut_point(kern::Precision prec, double snr_db) {
  DutContext& ctx = context_for(prec);
  const kern::MmseLayout& lay = ctx.layout;
  iss::Machine& machine = *ctx.machine;
  const u32 problems_per_run = lay.num_cores * lay.problems_per_core;

  Rng rng(cfg_.seed ^ (0xD0'7Aull + static_cast<u64>(prec)));
  phy::BerCounter ber;
  while (ber.errors() < cfg_.target_errors && ber.bits() < cfg_.max_bits) {
    Rng stream = rng.split(ber.bits() + 1);
    const Batch b =
        generate_batch(channel_, qam_, cfg_.ntx, problems_per_run, snr_db, stream);
    for (u32 core = 0; core < lay.num_cores; ++core) {
      for (u32 p = 0; p < lay.problems_per_core; ++p) {
        stage_problem(machine.memory(), lay, core, p,
                      b.problems[core * lay.problems_per_core + p]);
      }
    }
    machine.reset_harts();
    const auto result = machine.run();
    check(result.exited && !result.deadlock, "dut_point: DUT run did not complete");
    for (u32 core = 0; core < lay.num_cores; ++core) {
      for (u32 p = 0; p < lay.problems_per_core; ++p) {
        const u32 idx = core * lay.problems_per_core + p;
        const auto xhat = read_xhat(machine.memory(), lay, core, p);
        const auto rx_bits = qam_.demap_sequence(xhat);
        const size_t nb = rx_bits.size();
        ber.add(std::span(b.tx_bits).subspan(idx * nb, nb), rx_bits);
      }
    }
  }
  return {snr_db, ber.ber(), ber.bits(), ber.errors()};
}

std::vector<BerPoint> McRunner::golden_sweep(const std::vector<double>& snrs) {
  std::vector<BerPoint> out;
  out.reserve(snrs.size());
  for (const double s : snrs) out.push_back(golden_point(s));
  return out;
}

std::vector<BerPoint> McRunner::dut_sweep(kern::Precision prec,
                                          const std::vector<double>& snrs) {
  std::vector<BerPoint> out;
  out.reserve(snrs.size());
  for (const double s : snrs) out.push_back(dut_point(prec, s));
  return out;
}

}  // namespace tsim::sim
