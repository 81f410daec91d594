// Table I analog: simulation-method comparison for SDR baseband hardware.
//
// The paper's Table I surveys RTL / TLM / FPGA / SBT approaches by speed and
// multi-core support. The measurable analog in this repo is the raw
// simulation speed (MIPS) of our two engines on the same DUT binary:
//   - SBT-class fast ISS (translation cache + static timing), single hart,
//     multi-hart on one host thread, and one multi-hart machine per host
//     thread (independent clusters side by side, as in bench_fig6);
//   - RTL-class cycle-accurate model (contention, I$, barriers).
// Measured with google-benchmark; a summary table mirroring Table I's rows
// is printed at the end.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "iss/machine.h"
#include "uarch/cluster_sim.h"

namespace tsim::bench {
namespace {

constexpr u32 kBatch = 32;  // subcarriers per run

/// One batched-MMSE run on the fast ISS; reports instructions/second.
void BM_IssSingleHart(benchmark::State& state) {
  const auto cluster = tera::TeraPoolConfig::full();
  const auto lay = batched_layout(cluster, static_cast<u32>(state.range(0)),
                                  kern::Precision::k16CDotp, kBatch);
  iss::Machine machine(cluster, iss::TimingConfig{}, 1);
  machine.load_program(kern::build_mmse_program(lay));
  stage_random_problems(machine.memory(), lay, 12.0, 9);
  u64 instructions = 0;
  for (auto _ : state) {
    machine.reset_harts();
    const auto res = machine.run();
    instructions += res.instructions;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssSingleHart)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

/// Parallel MMSE on many harts, single host thread.
void BM_IssManyHart(benchmark::State& state) {
  const auto cluster = tera::TeraPoolConfig::full();
  const auto lay = parallel_layout(cluster, 4, kern::Precision::k16CDotp,
                                   static_cast<u32>(state.range(0)));
  iss::Machine machine(cluster, iss::TimingConfig{}, lay.num_cores);
  machine.load_program(kern::build_mmse_program(lay));
  stage_random_problems(machine.memory(), lay, 12.0, 10);
  u64 instructions = 0;
  for (auto _ : state) {
    machine.reset_harts();
    instructions += machine.run().instructions;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssManyHart)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// Same parallel MMSE on the cycle-accurate model (the RTL-class baseline).
void BM_CycleAccurate(benchmark::State& state) {
  const auto cluster = tera::TeraPoolConfig::full();
  const auto lay = parallel_layout(cluster, 4, kern::Precision::k16CDotp,
                                   static_cast<u32>(state.range(0)));
  uarch::ClusterSim rtl(cluster, uarch::UarchConfig{}, lay.num_cores);
  rtl.load_program(kern::build_mmse_program(lay));
  u64 instructions = 0;
  for (auto _ : state) {
    rtl.reset();
    stage_random_problems(rtl.memory(), lay, 12.0, 11);
    instructions += rtl.run().instructions;
  }
  state.counters["MIPS"] = benchmark::Counter(
      static_cast<double>(instructions) / 1e6, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CycleAccurate)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// Printed after the google-benchmark run: the Table I analog.
void print_summary() {
  const auto cluster = tera::TeraPoolConfig::full();
  // Aggregate MIPS of `threads` independent `cores`-hart machines, one per
  // host thread (machines share nothing, so this is the host-parallel mode).
  const auto measure_iss = [&](u32 cores, u32 threads) {
    const auto lay = parallel_layout(cluster, 4, kern::Precision::k16CDotp, cores);
    const auto program = kern::build_mmse_program(lay);
    std::vector<std::unique_ptr<iss::Machine>> machines;
    for (u32 t = 0; t < threads; ++t) {
      machines.push_back(
          std::make_unique<iss::Machine>(cluster, iss::TimingConfig{}, lay.num_cores));
      machines.back()->load_program(program);
      stage_random_problems(machines.back()->memory(), lay, 12.0, 12 + t);
    }
    std::vector<u64> instructions(threads, 0);
    Stopwatch clock;
    std::vector<std::thread> workers;
    for (u32 t = 0; t < threads; ++t)
      workers.emplace_back([&, t] { instructions[t] = machines[t]->run().instructions; });
    for (auto& w : workers) w.join();
    const double seconds = clock.seconds();
    u64 total = 0;
    for (const u64 n : instructions) total += n;
    return static_cast<double>(total) / seconds / 1e6;
  };
  const auto measure_rtl = [&](u32 cores) {
    const auto lay = parallel_layout(cluster, 4, kern::Precision::k16CDotp, cores);
    uarch::ClusterSim rtl(cluster, uarch::UarchConfig{}, lay.num_cores);
    rtl.load_program(kern::build_mmse_program(lay));
    stage_random_problems(rtl.memory(), lay, 12.0, 12);
    Stopwatch clock;
    const auto res = rtl.run();
    return static_cast<double>(res.instructions) / clock.seconds() / 1e6;
  };

  std::printf("\nTable I analog | simulation methods for SDR baseband hardware\n");
  std::printf("(paper rows [8][9]=RTL, [10]=TLM, [11][2]=FPGA are literature "
              "references; measured rows below)\n\n");
  sim::Table table({"method", "device", "speed [MIPS]", "multi-core"});
  table.add_row({"RTL sim (paper [8,9])", "QuestaSim/event-driven", "(slowest; ref)", "no"});
  table.add_row({"TLM (paper [10])", "SystemC", "(slow; ref)", "no"});
  table.add_row({"FPGA (paper [2,11])", "XCZU28DR/ZCU102", "(120-128 MHz)", "partial"});
  table.add_row({"cycle-accurate (ours)", "this host",
                 sim::strf("%.2f", measure_rtl(64)), "yes"});
  table.add_row({"SBT-class ISS (ours, 1 thread)", "this host",
                 sim::strf("%.2f", measure_iss(64, 1)), "yes"});
  table.add_row({"SBT-class ISS (ours, 1 machine/thread)", "this host",
                 sim::strf("%.2f", measure_iss(64, host_threads())), "yes"});
  table.print();
}

}  // namespace
}  // namespace tsim::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  tsim::bench::print_summary();
  return 0;
}
