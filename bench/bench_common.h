// Shared utilities for the figure/table reproduction harnesses.
//
// Every bench binary accepts --full (paper-scale parameters; the default is
// a laptop-scale "quick" configuration that preserves the figure's shape),
// --csv DIR and --json [DIR], plus its own flags; `--help` lists them all.
// It prints the rows/series of its paper figure via sim::Table.
#pragma once

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "kernels/layout.h"
#include "kernels/mmse_program.h"
#include "sim/cosim.h"
#include "sim/report.h"

namespace tsim::bench {

struct BenchOptions {
  bool full = false;
  std::string csv_dir;
  std::string json_dir;

  /// Parses the shared flags plus the bench's own `extra` ones, whose
  /// setters write into the bench's locals. Exits on --help or a bad flag.
  static BenchOptions parse(int argc, char** argv, std::vector<cli::Flag> extra = {}) {
    BenchOptions opt;
    std::vector<cli::Flag> flags = {
        {"--full", nullptr, "paper-scale parameters (default: quick)",
         cli::set_to(opt.full, true)},
        {"--csv", "DIR", "also write each table as CSV into DIR", cli::path(opt.csv_dir)},
        {"--json", "[DIR]", "also write each table as JSON rows into DIR (default: .)",
         cli::path(opt.json_dir)},
    };
    flags.insert(flags.end(), extra.begin(), extra.end());
    cli::parse(argc, argv, flags);
    return opt;
  }

  void maybe_write(const sim::Table& table, const std::string& name) const {
    if (!csv_dir.empty()) table.write_csv(csv_dir + "/" + name + ".csv");
    if (!json_dir.empty()) write_json_table(table, json_dir, name);
  }

  /// The one JSON-table writer every trajectory emitter goes through
  /// (bench_iss_mips, bench_ran_throughput, dse_driver): DIR/NAME.json via
  /// sim::write_json_rows. Returns the path written, empty on failure.
  static std::string write_json_table(const sim::Table& table, const std::string& dir,
                                      const std::string& name) {
    const std::string path = dir + "/" + name + ".json";
    return table.write_json(path) ? path : std::string();
  }
};

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The paper's MIMO sizes (NTX = NRX).
inline std::vector<u32> mimo_sizes() { return {4, 8, 16, 32}; }

/// Builds a parallel-MMSE layout with as many cores as fit (capped).
inline kern::MmseLayout parallel_layout(const tera::TeraPoolConfig& cluster, u32 n,
                                        kern::Precision prec, u32 core_cap) {
  kern::MmseLayout lay;
  lay.ntx = n;
  lay.nrx = n;
  lay.prec = prec;
  lay.problems_per_core = 1;
  lay.cluster = cluster;
  const u32 fit = kern::MmseLayout::max_parallel_cores(cluster, n, n, prec);
  lay.num_cores = std::min(fit, core_cap);
  lay.validate();
  return lay;
}

/// Builds a batched layout: `problems` subcarriers on a single Snitch core.
inline kern::MmseLayout batched_layout(const tera::TeraPoolConfig& cluster, u32 n,
                                       kern::Precision prec, u32 problems) {
  kern::MmseLayout lay;
  lay.ntx = n;
  lay.nrx = n;
  lay.prec = prec;
  lay.problems_per_core = problems;
  lay.num_cores = 1;
  lay.cluster = cluster;
  lay.validate();
  return lay;
}

/// Stages one random Rayleigh problem per (core, slot) at a fixed SNR.
inline void stage_random_problems(tera::ClusterMemory& mem, const kern::MmseLayout& lay,
                                  double snr_db, u64 seed) {
  Rng rng(seed);
  phy::Channel ch(phy::ChannelType::kRayleigh, lay.nrx, lay.ntx);
  phy::QamModulator qam(16);
  const sim::Batch batch = sim::generate_batch(
      ch, qam, lay.ntx, lay.num_cores * lay.problems_per_core, snr_db, rng);
  for (u32 c = 0; c < lay.num_cores; ++c)
    for (u32 p = 0; p < lay.problems_per_core; ++p)
      sim::stage_problem(mem, lay, c, p, batch.problems[c * lay.problems_per_core + p]);
}

inline u32 host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace tsim::bench
