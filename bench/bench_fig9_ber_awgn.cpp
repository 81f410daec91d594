// Figure 9: BER vs SNR over the AWGN channel, 16QAM and 64QAM, 4x4 and
// 32x32 MIMO, for the 64bDouble golden model and all five DUT precisions.
//
// Paper shape: 16bHalf / 16bwDotp / 16bCDotp sit on top of the double-
// precision curve; both 8b variants lose about an order of magnitude of BER
// at 18 dB because the Gram/matched-filter outputs are truncated before the
// 16b solve.
#include "bench_common.h"

#include "sim/mc.h"

namespace tsim::bench {
namespace {

void run_subfigure(const BenchOptions& opt, u32 n, u32 qam_order,
                   const std::vector<double>& snrs, u64 max_bits) {
  sim::McConfig cfg;
  cfg.ntx = n;
  cfg.nrx = n;
  cfg.qam_order = qam_order;
  cfg.channel = phy::ChannelType::kAwgn;
  cfg.target_errors = opt.full ? 300 : 80;
  cfg.max_bits = max_bits;
  cfg.cluster = tera::TeraPoolConfig::tiny();
  cfg.problems_per_core = 4;
  sim::McRunner mc(cfg);

  std::printf("\n%ux%u %uQAM AWGN (target errors %u, bit budget %llu)\n", n, n,
              qam_order, cfg.target_errors,
              static_cast<unsigned long long>(cfg.max_bits));
  std::vector<std::string> header = {"SNR [dB]", "64bDouble"};
  for (const auto p : kern::kAllPrecisions) header.emplace_back(name_of(p));
  sim::Table table(header);

  for (const double snr : snrs) {
    std::vector<std::string> row = {sim::strf("%.1f", snr)};
    row.push_back(sim::strf("%.2e", mc.golden_point(snr).ber));
    for (const auto prec : kern::kAllPrecisions)
      row.push_back(sim::strf("%.2e", mc.dut_point(prec, snr).ber));
    table.add_row(row);
  }
  table.print();
  opt.maybe_write(table, sim::strf("fig9_ber_awgn_%ux%u_%uqam", n, n, qam_order));
}

void run(const BenchOptions& opt) {
  std::printf("Fig. 9 | BER vs SNR, AWGN channel, all detector precisions\n");
  const std::vector<double> snrs =
      opt.full ? std::vector<double>{7.5, 10.0, 12.5, 15.0, 17.5}
               : std::vector<double>{7.5, 12.5, 17.5};
  run_subfigure(opt, 4, 16, snrs, opt.full ? 4'000'000 : 120'000);
  run_subfigure(opt, 4, 64, snrs, opt.full ? 2'000'000 : 120'000);
  run_subfigure(opt, 32, 16, snrs, opt.full ? 1'000'000 : 40'000);
  run_subfigure(opt, 32, 64, snrs, opt.full ? 1'000'000 : 40'000);
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  const auto opt = tsim::bench::BenchOptions::parse(argc, argv);
  tsim::bench::run(opt);
  return 0;
}
