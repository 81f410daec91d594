// Figure 5: CPU-time of the parallel MMSE simulated with the fast ISS
// (Banshee-analog) and its speedup over the cycle-accurate model
// (RTL-analog), per precision and MIMO size. Both engines run on one host
// thread, so wall time is CPU time and the speedup column is exact.
//
// Paper shape to reproduce: the SBT-class simulator is one to two orders of
// magnitude faster than the cycle-accurate baseline, with the gap growing
// with MIMO size (paper: 3x/12x/30x/63x vs event-driven RTL; our baseline
// is a compiled C++ cycle model, so absolute ratios are smaller - see
// EXPERIMENTS.md).
#include "bench_common.h"

#include "iss/machine.h"
#include "uarch/cluster_sim.h"

namespace tsim::bench {
namespace {

void run(const BenchOptions& opt) {
  const tera::TeraPoolConfig cluster = tera::TeraPoolConfig::full();
  const u32 core_cap = opt.full ? 1024 : 64;
  std::printf("Fig. 5 | parallel MMSE: fast ISS vs cycle-accurate model, "
              "one host thread each (cores capped at %u)\n\n", core_cap);

  sim::Table table({"MIMO", "precision", "cores", "ISS CPU [s]", "RTL CPU [s]",
                    "speedup (CPU)"});
  for (const u32 n : mimo_sizes()) {
    for (const kern::Precision prec : kern::kTimedPrecisions) {
      const auto lay = parallel_layout(cluster, n, prec, core_cap);
      const auto program = kern::build_mmse_program(lay);

      // --- fast ISS ---
      iss::Machine machine(cluster, iss::TimingConfig{}, lay.num_cores);
      machine.load_program(program);
      stage_random_problems(machine.memory(), lay, 12.0, 42 + n);
      Stopwatch iss_clock;
      const auto iss_res = machine.run();
      const double iss_cpu = iss_clock.seconds();
      check(iss_res.exited, "fig5: ISS run failed");

      // --- cycle-accurate reference ---
      uarch::ClusterSim rtl(cluster, uarch::UarchConfig{}, lay.num_cores);
      rtl.load_program(program);
      stage_random_problems(rtl.memory(), lay, 12.0, 42 + n);
      Stopwatch rtl_clock;
      const auto rtl_res = rtl.run();
      const double rtl_cpu = rtl_clock.seconds();
      check(rtl_res.exited, "fig5: RTL run failed");

      table.add_row({sim::strf("%ux%u", n, n), std::string(name_of(prec)),
                     sim::strf("%u", lay.num_cores), sim::strf("%.3f", iss_cpu),
                     sim::strf("%.3f", rtl_cpu),
                     sim::strf("%.1fx", rtl_cpu / iss_cpu)});
    }
  }
  table.print();
  opt.maybe_write(table, "fig5_parallel_speedup");
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  const auto opt = tsim::bench::BenchOptions::parse(argc, argv);
  tsim::bench::run(opt);
  return 0;
}
