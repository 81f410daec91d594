// Figure 10: BER vs SNR over the flat-fading Rayleigh channel, 16QAM and
// 64QAM, for 4x4 and 32x32 MIMO with the 64bDouble golden model and the two
// wide-accumulation 16-bit variants.
//
// Paper shape: only 16bwDotp and 16bCDotp follow the double-precision curve
// (the fast co-simulation "revealed the benefits of accumulating in 32b");
// the fully-loaded Rayleigh MMSE is interference-limited, so BER stays in
// the 1e-1 decade across the sweep. We additionally print 16bHalf to show
// the narrow-accumulation gap the paper describes in the text.
#include "bench_common.h"

#include "sim/mc.h"

namespace tsim::bench {
namespace {

constexpr kern::Precision kCurves[] = {
    kern::Precision::k16Half, kern::Precision::k16WDotp, kern::Precision::k16CDotp};

void run_subfigure(const BenchOptions& opt, u32 n, u32 qam_order,
                   const std::vector<double>& snrs) {
  sim::McConfig cfg;
  cfg.ntx = n;
  cfg.nrx = n;
  cfg.qam_order = qam_order;
  cfg.channel = phy::ChannelType::kRayleigh;
  cfg.target_errors = opt.full ? 400 : 120;
  cfg.max_bits = opt.full ? 400'000 : 30'000;  // Rayleigh BER is high: cheap
  cfg.cluster = tera::TeraPoolConfig::tiny();
  cfg.problems_per_core = 4;
  sim::McRunner mc(cfg);

  std::printf("\n%ux%u %uQAM Rayleigh\n", n, n, qam_order);
  std::vector<std::string> header = {"SNR [dB]", "64bDouble"};
  for (const auto p : kCurves) header.emplace_back(name_of(p));
  sim::Table table(header);
  for (const double snr : snrs) {
    std::vector<std::string> row = {sim::strf("%.1f", snr)};
    row.push_back(sim::strf("%.3f", mc.golden_point(snr).ber));
    for (const auto prec : kCurves)
      row.push_back(sim::strf("%.3f", mc.dut_point(prec, snr).ber));
    table.add_row(row);
  }
  table.print();
  opt.maybe_write(table, sim::strf("fig10_ber_rayleigh_%ux%u_%uqam", n, n, qam_order));
}

void run(const BenchOptions& opt) {
  std::printf("Fig. 10 | BER vs SNR, flat Rayleigh channel\n");
  const std::vector<double> snrs = opt.full
                                       ? std::vector<double>{0, 2.5, 5, 7.5, 10, 12.5, 15}
                                       : std::vector<double>{0, 7.5, 15};
  for (const u32 qam : {16u, 64u}) {
    run_subfigure(opt, 4, qam, snrs);
    run_subfigure(opt, 32, qam, snrs);
  }
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  const auto opt = tsim::bench::BenchOptions::parse(argc, argv);
  tsim::bench::run(opt);
  return 0;
}
