// The benchmark times the layers from outside, through their public calls.
// These tests show that its loops run the same program farm_driver and
// dse_driver run: the in-process Cell loops give the reports mac::run_farm
// gives, the traced split of Cell::step and the traced replay of
// dse::run_sweep give the outputs of the calls they replace.
#include <gtest/gtest.h>

#include <filesystem>

#include "workloads.h"

namespace perfbench {
namespace {

using tsim::mac::CellReport;
using tsim::mac::FarmConfig;

void expect_same_reports(const std::vector<CellReport>& loop, const FarmConfig& cfg) {
  for (const tsim::u32 shards : {1u, 2u}) {
    FarmConfig farm = cfg;
    farm.shards = shards;
    farm.checkpoint_every = 0;
    farm.checkpoint_dir.clear();
    const tsim::mac::FarmResult result = tsim::mac::run_farm(farm);
    ASSERT_GE(result.cells.size(), loop.size());
    for (size_t c = 0; c < loop.size(); ++c)
      EXPECT_EQ(tsim::mac::cell_report_row(loop[c]),
                tsim::mac::cell_report_row(result.cells[c]))
          << "cell " << c << ", " << shards << " shard(s)";
  }
}

TEST(Fidelity, BusyFarmLoopMatchesRunFarm) {
  FarmConfig cfg = farm_busy_config(7);
  cfg.ttis = 40;
  const Episode ep = farm_busy_episode(cfg, nullptr);
  ASSERT_EQ(ep.reports.size(), cfg.cells);
  expect_same_reports(ep.reports, cfg);
}

TEST(Fidelity, CheckpointedIdleLoopMatchesRunFarm) {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "perfbench_fidelity_snapshots";
  std::filesystem::remove_all(dir);
  FarmConfig cfg = farm_idle_config(7, dir.string());
  cfg.ttis = 200;
  const Episode ep = farm_idle_episode(cfg, nullptr);
  EXPECT_EQ(ep.snapshot_kb.size(), 3u);
  EXPECT_EQ(ep.self_checks, 2u);
  EXPECT_EQ(ep.self_failed, 0u);
  cfg.cells = 2;  // so that two shards each own a cell
  expect_same_reports(ep.reports, cfg);
  std::filesystem::remove_all(dir);
}

TEST(Fidelity, TracedSplitMatchesCellStep) {
  FarmConfig cfg = farm_busy_config(11);
  cfg.ttis = 40;
  Tracer tracer;
  const Episode stepped = farm_busy_episode(cfg, nullptr);
  const Episode split = farm_busy_episode(cfg, &tracer);
  EXPECT_EQ(stepped.items, split.items);
  ASSERT_EQ(stepped.reports.size(), split.reports.size());
  for (size_t c = 0; c < stepped.reports.size(); ++c)
    EXPECT_EQ(stepped.reports[c], split.reports[c]);
  EXPECT_EQ(tracer.stats()["tti"].count, u64{cfg.ttis} * cfg.cells);
}

TEST(Fidelity, TracedReplayMatchesRunSweep) {
  tsim::dse::DesignSpace space = dse_space();
  space.clusters = {1, 2};
  space.cores_per_cluster = {16};
  space.precisions = {tsim::kern::Precision::k16Half, tsim::kern::Precision::k16CDotp};
  tsim::dse::SweepConfig cfg = dse_config(5);
  cfg.traffic.carrier.bandwidth_hz = 2e6;
  cfg.traffic.carrier.symbols_per_slot = 2;
  Tracer tracer;
  const Episode swept = dse_episode(space, cfg, nullptr);
  const Episode replayed = dse_episode(space, cfg, &tracer);
  EXPECT_EQ(swept.items, replayed.items);
  EXPECT_EQ(swept.warm_hits, replayed.warm_hits);
  EXPECT_GT(replayed.warm_hits, 0u);
  EXPECT_EQ(tracer.stats()["dse.construct"].count, swept.points.size());
}

}  // namespace
}  // namespace perfbench
