// Monte-Carlo BER extraction with the emulated DUT in the loop (paper
// Sec. V-C): per SNR point, iterate batches of random subcarrier problems
// until a target error count (or a bit budget) is reached.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "kernels/precision.h"
#include "sim/cosim.h"

namespace tsim::sim {

struct McConfig {
  u32 ntx = 4;
  u32 nrx = 4;
  u32 qam_order = 16;
  phy::ChannelType channel = phy::ChannelType::kAwgn;

  u32 target_errors = 200;  // stop once this many bit errors are observed
  u64 max_bits = 4'000'000; // hard bit budget per point
  u64 seed = 0x5EED;

  // DUT batching: problems solved per Machine::run call.
  tera::TeraPoolConfig cluster = tera::TeraPoolConfig::tiny();
  u32 batch_cores = 0;        // 0 = auto (as many as fit)
  u32 problems_per_core = 4;
};

struct BerPoint {
  double snr_db = 0.0;
  double ber = 0.0;
  u64 bits = 0;
  u64 errors = 0;
};

class McRunner {
 public:
  explicit McRunner(const McConfig& cfg);

  /// Double-precision reference detector ("64bDouble").
  BerPoint golden_point(double snr_db);

  /// DUT detector in the given precision, bit-true on the emulated cluster.
  BerPoint dut_point(kern::Precision prec, double snr_db);

  /// Sweeps a list of SNR points.
  std::vector<BerPoint> golden_sweep(const std::vector<double>& snrs);
  std::vector<BerPoint> dut_sweep(kern::Precision prec, const std::vector<double>& snrs);

  const McConfig& config() const { return cfg_; }

 private:
  struct DutContext {
    kern::MmseLayout layout;
    std::unique_ptr<iss::Machine> machine;
  };
  DutContext& context_for(kern::Precision prec);

  McConfig cfg_;
  phy::Channel channel_;
  phy::QamModulator qam_;
  std::optional<DutContext> contexts_[5];
};

}  // namespace tsim::sim
