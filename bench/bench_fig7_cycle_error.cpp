// Figure 7: parallel-MMSE cycle counts per precision and MIMO size -
// (a) relative cycle count measured by the cycle-accurate model (RTL-analog),
// (b) relative cycle count estimated by the ISS timing model (SBT-analog),
// (c) error of the ISS estimate and of a raw instruction count vs (a).
//
// Paper shape: SBT underestimates RTL cycles (negative errors, ~30% average,
// worst for 16bHalf with its doubled memory operations); the scoreboard
// estimate beats the bare instruction count; the SIMD-variant speedup
// ordering (16bCDotp fastest, then 8bwDotp, 16bwDotp) survives in the
// estimates.
#include "bench_common.h"

#include "iss/machine.h"
#include "uarch/cluster_sim.h"

namespace tsim::bench {
namespace {

struct Row {
  u64 rtl_cycles = 0;
  u64 iss_cycles = 0;
  u64 instructions = 0;  // per-core max, the naive estimate
};

void run(const BenchOptions& opt) {
  const tera::TeraPoolConfig cluster = tera::TeraPoolConfig::full();
  const u32 core_cap = opt.full ? 1024 : 32;
  std::printf("Fig. 7 | MMSE cycle count: cycle-accurate (RTL) vs ISS estimate vs "
              "instruction count (cores capped at %u)\n\n", core_cap);

  // The last three columns are the exact counts behind the rounded ones, so
  // the --json table pins the timing models bit for bit.
  sim::Table table({"MIMO", "precision", "RTL kCycles", "rel RTL", "ISS kCycles",
                    "rel ISS", "err ISS", "err instr-count", "rtl_cycles",
                    "iss_cycles", "instructions"});
  for (const u32 n : mimo_sizes()) {
    std::vector<Row> rows;
    for (const kern::Precision prec : kern::kTimedPrecisions) {
      const auto lay = parallel_layout(cluster, n, prec, core_cap);
      const auto program = kern::build_mmse_program(lay);

      Row row;
      {
        uarch::ClusterSim rtl(cluster, uarch::UarchConfig{}, lay.num_cores);
        rtl.load_program(program);
        stage_random_problems(rtl.memory(), lay, 12.0, 5 + n);
        const auto res = rtl.run();
        check(res.exited, "fig7: RTL run failed");
        row.rtl_cycles = res.cycles;
      }
      {
        iss::Machine machine(cluster, iss::TimingConfig{}, lay.num_cores);
        machine.load_program(program);
        stage_random_problems(machine.memory(), lay, 12.0, 5 + n);
        const auto res = machine.run();
        check(res.exited, "fig7: ISS run failed");
        row.iss_cycles = machine.estimated_cycles();
        u64 max_instr = 0;
        for (u32 c = 0; c < machine.num_harts(); ++c)
          max_instr = std::max(max_instr, machine.hart(c).instructions());
        row.instructions = max_instr;
      }
      rows.push_back(row);
    }
    const double base_rtl = static_cast<double>(rows[0].rtl_cycles);
    const double base_iss = static_cast<double>(rows[0].iss_cycles);
    for (size_t p = 0; p < rows.size(); ++p) {
      const auto& r = rows[p];
      const double err_iss =
          (static_cast<double>(r.iss_cycles) - static_cast<double>(r.rtl_cycles)) /
          static_cast<double>(r.rtl_cycles);
      const double err_ins =
          (static_cast<double>(r.instructions) - static_cast<double>(r.rtl_cycles)) /
          static_cast<double>(r.rtl_cycles);
      table.add_row({sim::strf("%ux%u", n, n),
                     std::string(name_of(kern::kTimedPrecisions[p])),
                     sim::strf("%.2fk", r.rtl_cycles / 1e3),
                     sim::strf("%.2f", r.rtl_cycles / base_rtl),
                     sim::strf("%.2fk", r.iss_cycles / 1e3),
                     sim::strf("%.2f", r.iss_cycles / base_iss),
                     sim::strf("%+.0f%%", err_iss * 100),
                     sim::strf("%+.0f%%", err_ins * 100),
                     sim::strf("%llu", static_cast<unsigned long long>(r.rtl_cycles)),
                     sim::strf("%llu", static_cast<unsigned long long>(r.iss_cycles)),
                     sim::strf("%llu", static_cast<unsigned long long>(r.instructions))});
    }
  }
  table.print();
  opt.maybe_write(table, "fig7_cycle_error");
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  const auto opt = tsim::bench::BenchOptions::parse(argc, argv);
  tsim::bench::run(opt);
  return 0;
}
