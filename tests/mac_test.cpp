// MAC subsystem tests: HARQ entity edge cases (max-retransmission drop,
// soft-buffer release, all-processes-busy stall, feedback timeouts),
// burst-model sanity, the closed-loop cell (determinism, HARQ vs single-shot
// residual BLER), the farm's shard/thread bit-invariance contract, the
// supervising runner's failure policies (crash/stall/garble x
// retry/degrade/fail-fast), and the JSON row wire format the shard gather
// rides on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "mac/cell.h"
#include "mac/farm.h"
#include "mac/harq.h"
#include "sim/report.h"

namespace tsim::mac {
namespace {

// ------------------------------------------------------------ HarqEntity ---

TEST(HarqEntityTest, NewDataOccupiesLowestFreeProcess) {
  HarqEntity h(HarqConfig{4, 4, true});
  EXPECT_EQ(h.start_new_data(100).value(), 0u);
  EXPECT_EQ(h.start_new_data(100).value(), 1u);
  EXPECT_TRUE(h.active(0));
  EXPECT_TRUE(h.active(1));
  EXPECT_FALSE(h.active(2));
  EXPECT_EQ(h.soft_buffer_bits(), 200u);
}

TEST(HarqEntityTest, AckReleasesSoftBuffer) {
  HarqEntity h(HarqConfig{2, 4, true});
  h.start_new_data(100);
  h.on_feedback(0, true);
  EXPECT_FALSE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().acks, 1u);
  EXPECT_EQ(h.stats().delivered_bits, 100u);
  // The freed process starts the next block clean: transmission 1, new bits.
  EXPECT_EQ(h.start_new_data(60).value(), 0u);
  EXPECT_EQ(h.attempts(0), 1u);
  EXPECT_EQ(h.soft_buffer_bits(), 60u);
}

TEST(HarqEntityTest, NackRetransmitsWithBoostedAttemptCount) {
  HarqEntity h(HarqConfig{2, 4, true});
  h.start_new_data(100);
  h.on_feedback(0, false);  // NACK 1: block stays resident
  EXPECT_TRUE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 100u);
  ASSERT_TRUE(h.pending_retx().has_value());
  EXPECT_EQ(*h.pending_retx(), 0u);
  EXPECT_EQ(h.grant_retx(0), 2u);  // second transmission
  h.on_feedback(0, true);
  EXPECT_EQ(h.stats().retx, 1u);
  EXPECT_EQ(h.stats().acks, 1u);
  EXPECT_FALSE(h.pending_retx().has_value());
}

TEST(HarqEntityTest, MaxAttemptsDropsBlockAndFreesProcess) {
  HarqEntity h(HarqConfig{1, 3, true});
  h.start_new_data(100);
  h.on_feedback(0, false);  // attempt 1 NACK
  h.grant_retx(0);
  h.on_feedback(0, false);  // attempt 2 NACK
  h.grant_retx(0);
  h.on_feedback(0, false);  // attempt 3 NACK: budget spent -> drop
  EXPECT_FALSE(h.active(0));
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_EQ(h.stats().dropped_bits, 100u);
  EXPECT_EQ(h.stats().retx, 2u);
  EXPECT_FALSE(h.pending_retx().has_value());
  EXPECT_DOUBLE_EQ(h.stats().residual_bler(), 1.0);
}

TEST(HarqEntityTest, AllProcessesBusyStalls) {
  HarqEntity h(HarqConfig{2, 4, true});
  EXPECT_TRUE(h.start_new_data(10).has_value());
  EXPECT_TRUE(h.start_new_data(10).has_value());
  EXPECT_TRUE(h.all_busy());
  EXPECT_FALSE(h.start_new_data(10).has_value());
  EXPECT_EQ(h.stats().stalls, 1u);
  EXPECT_EQ(h.stats().new_tx, 2u);
  EXPECT_EQ(h.unresolved(), 2u);
}

TEST(HarqEntityTest, DisabledHarqDropsOnFirstNack) {
  HarqEntity h(HarqConfig{4, 4, false});  // single-shot baseline
  h.start_new_data(100);
  h.on_feedback(0, false);
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_FALSE(h.active(0));
  EXPECT_FALSE(h.pending_retx().has_value());
}

TEST(HarqEntityTest, SoftBufferPeakTracksConcurrentBlocks) {
  HarqEntity h(HarqConfig{4, 4, true});
  h.start_new_data(100);
  h.start_new_data(200);
  EXPECT_EQ(h.stats().soft_buffer_peak_bits, 300u);
  h.on_feedback(0, true);
  h.on_feedback(1, true);
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
  EXPECT_EQ(h.stats().soft_buffer_peak_bits, 300u);  // peak is monotone
}

TEST(HarqEntityTest, FeedbackTimeoutResolvesAsNackForRetx) {
  HarqConfig cfg{2, 4, true};
  cfg.feedback_timeout_slots = 3;
  HarqEntity h(cfg);
  h.start_new_data(100, /*tti=*/5);
  EXPECT_EQ(h.expire_overdue(7), 0u);  // indication still within the window
  EXPECT_EQ(h.expire_overdue(8), 1u);  // 5 + 3: attempt resolves as NACK
  EXPECT_EQ(h.stats().timeouts, 1u);
  EXPECT_TRUE(h.active(0));            // block stays resident for retx
  EXPECT_FALSE(h.in_flight(0));
  ASSERT_TRUE(h.pending_retx().has_value());
  EXPECT_EQ(h.grant_retx(0, 9), 2u);
  EXPECT_EQ(h.sent_tti(0), 9u);        // retx restarts the timeout window
}

TEST(HarqEntityTest, FeedbackTimeoutSpendsTheAttemptBudget) {
  HarqConfig cfg{1, 2, true};
  cfg.feedback_timeout_slots = 2;
  HarqEntity h(cfg);
  h.start_new_data(64, 0);
  EXPECT_EQ(h.expire_overdue(2), 1u);  // attempt 1 timed out
  h.grant_retx(0, 3);
  EXPECT_EQ(h.expire_overdue(5), 1u);  // attempt 2 timed out: budget spent
  EXPECT_FALSE(h.active(0));           // block dropped, soft buffer released
  EXPECT_EQ(h.stats().drops, 1u);
  EXPECT_EQ(h.stats().timeouts, 2u);
  EXPECT_EQ(h.soft_buffer_bits(), 0u);
}

TEST(HarqEntityTest, ZeroTimeoutWaitsForever) {
  HarqEntity h(HarqConfig{1, 2, true});
  h.start_new_data(64, 0);
  EXPECT_EQ(h.expire_overdue(1000), 0u);
  EXPECT_TRUE(h.in_flight(0));
}

// ----------------------------------------------------------- BurstConfig ---

TEST(BurstConfigTest, StationaryOnProbabilityMatchesDuty) {
  BurstConfig b;
  b.enabled = true;
  b.duty = 0.5;
  b.mean_on_slots = 8.0;
  b.validate();
  // Two-state Markov chain: stationary P(on) = p_on / (p_on + p_off).
  const double p_on = b.p_on(0);
  const double p_off = b.p_off();
  EXPECT_NEAR(p_on / (p_on + p_off), b.duty, 1e-12);
}

TEST(BurstConfigTest, DiurnalModulationStaysWithinBounds) {
  BurstConfig b;
  b.enabled = true;
  b.duty = 0.9;
  b.mean_on_slots = 4.0;
  b.diurnal_period_ttis = 20.0;
  b.diurnal_depth = 1.0;
  b.validate();
  for (u64 t = 0; t < 40; ++t) {
    const double p = b.p_on(t);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ------------------------------------------------------------- Cell/farm ---

/// A farm small enough for unit tests: 16-subcarrier carrier, 2 symbols,
/// tiny clusters - but enough TTIs for retransmission chains to resolve.
FarmConfig tiny_farm() {
  FarmConfig cfg;
  cfg.cells = 4;
  cfg.ttis = 24;
  cfg.ues_per_cell = 8;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.seed = 0xFA21;
  return cfg;
}

TEST(CellTest, ClosedLoopRunsAndAccounts) {
  const FarmConfig cfg = tiny_farm();
  Cell cell(cfg.cell_config(0));
  for (u32 t = 0; t < cfg.ttis; ++t) cell.step(t);
  const CellReport rep = cell.report();
  EXPECT_EQ(rep.ttis, cfg.ttis);
  EXPECT_EQ(rep.slots, cfg.ttis);
  EXPECT_EQ(rep.pdus, rep.harq.transmissions());
  EXPECT_GT(rep.pdus, 0u);
  EXPECT_GT(rep.bits, 0u);
  // Feedback bookkeeping closes: every transmission either passed CRC (and
  // was an ACK), failed (and became a retx, a drop, or is unresolved).
  EXPECT_EQ(rep.harq.new_tx, rep.harq.acks + rep.harq.drops + rep.unresolved);
  EXPECT_LE(rep.p50_cycles, rep.p99_cycles);
  EXPECT_LE(rep.p99_cycles, rep.worst_cycles);
}

TEST(CellTest, SameConfigIsBitIdentical) {
  const FarmConfig cfg = tiny_farm();
  Cell a(cfg.cell_config(1));
  Cell b(cfg.cell_config(1));
  for (u32 t = 0; t < cfg.ttis; ++t) {
    a.step(t);
    b.step(t);
  }
  EXPECT_TRUE(a.report() == b.report());
}

TEST(CellTest, DistinctCellsGetDistinctTraffic) {
  const FarmConfig cfg = tiny_farm();
  const CellReport a = run_cell(cfg, 0);
  const CellReport b = run_cell(cfg, 1);
  // Same shape, different keyed streams: the error counts should differ.
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_FALSE(a == b);
}

TEST(FarmTest, ShardCountDoesNotChangeAnyReport) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 1;
  const FarmResult r1 = run_farm(cfg);
  cfg.shards = 2;
  const FarmResult r2 = run_farm(cfg);
  cfg.shards = 4;
  const FarmResult r4 = run_farm(cfg);
  cfg.shards = 3;  // uneven partition
  const FarmResult r3 = run_farm(cfg);
  ASSERT_EQ(r1.cells.size(), cfg.cells);
  ASSERT_EQ(r2.cells.size(), cfg.cells);
  ASSERT_EQ(r4.cells.size(), cfg.cells);
  for (u32 c = 0; c < cfg.cells; ++c) {
    EXPECT_TRUE(r1.cells[c] == r2.cells[c]) << "cell " << c << " shards 1 vs 2";
    EXPECT_TRUE(r1.cells[c] == r4.cells[c]) << "cell " << c << " shards 1 vs 4";
    EXPECT_TRUE(r1.cells[c] == r3.cells[c]) << "cell " << c << " shards 1 vs 3";
  }
}

TEST(FarmTest, HostThreadCountDoesNotChangeAnyReport) {
  FarmConfig cfg = tiny_farm();
  cfg.pool.host_threads = 1;
  const FarmResult r1 = run_farm(cfg);
  cfg.pool.host_threads = 4;
  cfg.shards = 2;
  const FarmResult r4 = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(r1.cells[c] == r4.cells[c]) << "cell " << c;
}

TEST(FarmTest, HarqLowersResidualBlerAtSameSnr) {
  FarmConfig cfg = tiny_farm();
  cfg.cells = 2;
  cfg.ttis = 40;
  const CellReport with = run_farm(cfg).total();
  cfg.harq.enabled = false;
  const CellReport without = run_farm(cfg).total();
  ASSERT_GT(with.harq.retx, 0u) << "test needs CRC failures to exercise HARQ";
  ASSERT_GT(without.harq.finished(), 0u);
  // Retransmissions at Chase-boosted SNR recover blocks single-shot loses.
  EXPECT_LT(with.residual_bler(), without.residual_bler());
  EXPECT_EQ(without.harq.retx, 0u);
}

TEST(FarmTest, BurstyArrivalsThinTheOfferedLoad) {
  FarmConfig cfg = tiny_farm();
  const CellReport full = run_farm(cfg).total();
  cfg.burst.enabled = true;
  cfg.burst.duty = 0.4;
  cfg.burst.arrival_prob = 0.7;
  const CellReport burst = run_farm(cfg).total();
  EXPECT_LT(burst.harq.new_tx, full.harq.new_tx);
  EXPECT_GT(burst.harq.new_tx, 0u);
  // Bursty runs stay shard-invariant too.
  cfg.shards = 2;
  const CellReport burst2 = run_farm(cfg).total();
  EXPECT_TRUE(burst == burst2);
}

TEST(FarmTest, TotalSumsCounters) {
  FarmConfig cfg = tiny_farm();
  const FarmResult r = run_farm(cfg);
  const CellReport t = r.total();
  u64 pdus = 0, misses = 0, worst = 0;
  for (const CellReport& c : r.cells) {
    pdus += c.pdus;
    misses += c.misses;
    worst = std::max(worst, c.worst_cycles);
  }
  EXPECT_EQ(t.pdus, pdus);
  EXPECT_EQ(t.misses, misses);
  EXPECT_EQ(t.worst_cycles, worst);
  EXPECT_EQ(t.ues, cfg.cells * cfg.ues_per_cell);
}

TEST(FarmTest, TotalSemanticsOnHandBuiltReports) {
  // Pin which fields sum and which take the worst cell: cells run on
  // independent hardware, so timing percentiles are max'd while every
  // counter - including soft-buffer peaks (farm-wide memory provisioning)
  // and the fault/timeout counters - sums.
  CellReport a, b;
  a.cell = 0;
  a.ttis = 24;
  a.p50_cycles = 10;
  a.p99_cycles = 20;
  a.worst_cycles = 30;
  a.harq.soft_buffer_peak_bits = 1000;
  a.harq.timeouts = 3;
  a.hart_faults = 2;
  a.ecc_corrected = 1;
  a.ecc_detected = 3;
  a.ecc_silent = 1;
  a.dropped_ind = 2;
  a.degraded_slots = 4;
  b.cell = 1;
  b.ttis = 16;
  b.p50_cycles = 15;
  b.p99_cycles = 18;
  b.worst_cycles = 25;
  b.harq.soft_buffer_peak_bits = 500;
  b.harq.timeouts = 4;
  b.hart_faults = 5;
  b.ecc_corrected = 2;
  b.ecc_silent = 1;
  b.dropped_ind = 1;
  b.delayed_ind = 2;
  b.degraded_slots = 1;
  FarmResult r;
  r.cells = {a, b};
  const CellReport t = r.total();
  EXPECT_EQ(t.ttis, 24u);          // max: cells ran concurrently
  EXPECT_EQ(t.p50_cycles, 15u);    // max over per-cell percentiles
  EXPECT_EQ(t.p99_cycles, 20u);
  EXPECT_EQ(t.worst_cycles, 30u);
  EXPECT_EQ(t.harq.soft_buffer_peak_bits, 1500u);  // sum
  EXPECT_EQ(t.harq.timeouts, 7u);
  EXPECT_EQ(t.hart_faults, 7u);
  EXPECT_EQ(t.ecc_corrected, 3u);
  EXPECT_EQ(t.ecc_detected, 3u);
  EXPECT_EQ(t.ecc_silent, 2u);
  EXPECT_EQ(t.dropped_ind, 3u);
  EXPECT_EQ(t.delayed_ind, 2u);
  EXPECT_EQ(t.degraded_slots, 5u);
}

// ------------------------------------------------------ supervisor/faults ---

TEST(FarmSupervisorTest, CrashedShardIsRetriedToTheCleanResult) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.host_fault.crash_shard = 0;
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 1u);
  EXPECT_EQ(got.failures[0].shard, 0u);
  EXPECT_EQ(got.failures[0].attempt, 1u);
  EXPECT_TRUE(got.failures[0].recovered);
  EXPECT_TRUE(got.missing_cells().empty());
}

TEST(FarmSupervisorTest, ExhaustedRetriesFallBackToInlineExecution) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.max_shard_attempts = 2;
  cfg.host_fault.crash_shard = 1;
  cfg.host_fault.fault_attempts = 99;  // every forked attempt crashes
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 2u);  // both forked attempts failed
  EXPECT_TRUE(got.failures[0].recovered);  // ...but the inline fallback ran
  EXPECT_TRUE(got.failures[1].recovered);
  EXPECT_TRUE(got.missing_cells().empty());
}

TEST(FarmSupervisorTest, StalledShardIsKilledByTheTimeoutAndRetried) {
  FarmConfig cfg = tiny_farm();
  cfg.cells = 2;
  cfg.ttis = 8;
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kRetry;
  cfg.host_fault.stall_shard = 1;
  cfg.shard_timeout_s = 4.0;
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_EQ(got.failures.size(), 1u);
  EXPECT_NE(got.failures[0].reason.find("timeout"), std::string::npos)
      << got.failures[0].reason;
  EXPECT_TRUE(got.failures[0].recovered);
}

TEST(FarmSupervisorTest, GarbledShardDegradesToZeroFilledCells) {
  FarmConfig cfg = tiny_farm();
  const FarmResult want = run_farm(cfg);

  cfg.shards = 2;
  cfg.policy = FarmPolicy::kDegrade;
  cfg.host_fault.garble_shard = 1;  // owns cells 1 and 3 (round-robin)
  const FarmResult got = run_farm(cfg);
  ASSERT_FALSE(got.failures.empty());
  EXPECT_FALSE(got.failures[0].recovered);
  EXPECT_NE(got.failures[0].reason.find("JSON"), std::string::npos)
      << got.failures[0].reason;
  EXPECT_EQ(got.missing_cells(), (std::vector<u32>{1, 3}));
  // Survivor cells are untouched; lost cells are zero-filled with identity.
  EXPECT_TRUE(got.cells[0] == want.cells[0]);
  EXPECT_TRUE(got.cells[2] == want.cells[2]);
  EXPECT_EQ(got.cells[1].cell, 1u);
  EXPECT_EQ(got.cells[1].pdus, 0u);
  EXPECT_EQ(got.cells[3].slots, 0u);
}

TEST(FarmSupervisorTest, FailFastThrowsAndReapsEverything) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.policy = FarmPolicy::kFailFast;
  cfg.host_fault.crash_shard = 0;
  EXPECT_THROW(run_farm(cfg), SimError);
}

TEST(FarmSupervisorTest, ReportsLargerThanThePipeBufferAreDrained) {
  // Pad every row until each shard streams well past 64 KiB (the Linux pipe
  // buffer): the concurrent poll() drain must gather all of it without
  // deadlock, and padding must not change any parsed report.
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  const FarmResult want = run_farm(cfg);
  cfg.pad_row_bytes = 48 * 1024;  // 2 cells/shard -> ~96 KiB per shard
  const FarmResult got = run_farm(cfg);
  for (u32 c = 0; c < cfg.cells; ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  EXPECT_TRUE(got.failures.empty());
}

TEST(FarmSupervisorTest, PolicyNamesRoundTrip) {
  EXPECT_EQ(parse_farm_policy("retry"), FarmPolicy::kRetry);
  EXPECT_EQ(parse_farm_policy("degrade"), FarmPolicy::kDegrade);
  EXPECT_EQ(parse_farm_policy("fail_fast"), FarmPolicy::kFailFast);
  EXPECT_STREQ(farm_policy_name(FarmPolicy::kRetry), "retry");
  EXPECT_THROW(parse_farm_policy("bogus"), SimError);
}

TEST(FarmSupervisorTest, StallInjectionWithoutTimeoutIsRejected) {
  FarmConfig cfg = tiny_farm();
  cfg.shards = 2;
  cfg.host_fault.stall_shard = 0;
  cfg.shard_timeout_s = 0.0;  // would hang forever
  EXPECT_THROW(run_farm(cfg), SimError);
}

// ------------------------------------------------------- row wire format ---

TEST(FarmWireFormatTest, ReportRowRoundTrips) {
  const FarmConfig cfg = tiny_farm();
  const CellReport rep = run_cell(cfg, 2);
  const std::vector<std::string> header = cell_report_header();
  const std::vector<std::string> row = cell_report_row(rep);
  ASSERT_EQ(header.size(), row.size());
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < header.size(); ++i) pairs.emplace_back(header[i], row[i]);
  EXPECT_TRUE(cell_report_from_row(pairs) == rep);
}

/// Reports sent through the exact writer/parser pair the shard gather uses.
std::vector<std::vector<std::pair<std::string, std::string>>> pipe_round_trip(
    const std::vector<CellReport>& reps) {
  std::vector<std::vector<std::string>> rows;
  for (const CellReport& r : reps) rows.push_back(cell_report_row(r));
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (f == nullptr) return {};
  sim::write_json_rows(f, cell_report_header(), rows);
  std::rewind(f);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::vector<std::vector<std::pair<std::string, std::string>>> parsed;
  EXPECT_TRUE(sim::parse_json_rows(text, parsed));
  return parsed;
}

TEST(FarmWireFormatTest, JsonPipeRoundTripsThroughParser) {
  // Includes the multi-row comma path.
  const FarmConfig cfg = tiny_farm();
  std::vector<CellReport> reps = {run_cell(cfg, 0), run_cell(cfg, 1),
                                  run_cell(cfg, 3)};
  const auto parsed = pipe_round_trip(reps);
  ASSERT_EQ(parsed.size(), reps.size());
  for (size_t i = 0; i < reps.size(); ++i)
    EXPECT_TRUE(cell_report_from_row(parsed[i]) == reps[i]) << "row " << i;
}

TEST(FarmWireFormatTest, ParserRejectsMalformedInput) {
  std::vector<std::vector<std::pair<std::string, std::string>>> rows;
  EXPECT_FALSE(sim::parse_json_rows("", rows));
  EXPECT_FALSE(sim::parse_json_rows("not json", rows));
  EXPECT_FALSE(sim::parse_json_rows("[{\"a\": 1}]", rows));  // non-string value
  EXPECT_FALSE(sim::parse_json_rows("[{\"a\": \"1\"", rows));  // truncated
  EXPECT_TRUE(sim::parse_json_rows("[\n]\n", rows));
  EXPECT_TRUE(rows.empty());
  EXPECT_TRUE(sim::parse_json_rows("[{\"a\": \"1\"}, {\"a\": \"2\"}]", rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0].second, "2");
}

/// A wire row whose column i holds value (i + 1) * scale: every column its
/// own non-zero value.
std::vector<std::pair<std::string, std::string>> distinct_row(u64 scale = 1) {
  std::vector<std::pair<std::string, std::string>> row;
  const std::vector<std::string> header = cell_report_header();
  for (size_t i = 0; i < header.size(); ++i)
    row.emplace_back(header[i], std::to_string((i + 1) * scale));
  return row;
}

TEST(FarmWireFormatTest, MissingFieldThrows) {
  EXPECT_THROW(cell_report_from_row({{"cell", "0"}}), SimError);
  EXPECT_THROW(cell_report_from_row({{"cell", "abc"}}), SimError);

  // Rows come through a worker pipe: a value must be plain decimal digits
  // that fit the column's member, never wrapped, saturated or trimmed.
  const auto with = [](const std::string& key, const std::string& value) {
    auto row = distinct_row();
    for (auto& [k, v] : row)
      if (k == key) v = value;
    return row;
  };
  EXPECT_NO_THROW(cell_report_from_row(distinct_row()));
  EXPECT_EQ(cell_report_from_row(with("cell", "4294967295")).cell, 4294967295u);
  EXPECT_EQ(cell_report_from_row(with("retx", "18446744073709551615")).harq.retx,
            18446744073709551615ull);
  for (const char* bad : {"-1", " 7", "7 ", "+7", "", "0x7", "99999999999999999999999"})
    EXPECT_THROW(cell_report_from_row(with("retx", bad)), SimError) << "'" << bad << "'";
  EXPECT_THROW(cell_report_from_row(with("cell", "4294967297")), SimError);
  EXPECT_THROW(cell_report_from_row(with("ttis", "-1")), SimError);
}

TEST(FarmWireFormatTest, EveryColumnRoundTripsAndMerges) {
  const std::vector<std::string> header = cell_report_header();
  const auto values = [](const CellReport& rep) {
    std::vector<u64> out;
    for (const std::string& v : cell_report_row(rep)) out.push_back(std::stoull(v));
    return out;
  };
  const CellReport rep = cell_report_from_row(distinct_row());
  const std::vector<u64> vals = values(rep);
  ASSERT_EQ(vals.size(), header.size());
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], i + 1) << header[i];

  const auto parsed = pipe_round_trip({rep});
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_TRUE(cell_report_from_row(parsed[0]) == rep);

  // Equality sees every column.
  for (size_t i = 0; i < header.size(); ++i) {
    auto row = distinct_row();
    row[i].second += "0";  // ten times the value
    EXPECT_FALSE(cell_report_from_row(row) == rep) << header[i];
  }

  // total(): cells run on independent hardware, so the timing columns take
  // the worst cell while every counter - soft-buffer peaks (farm-wide memory
  // provisioning) and the fault/timeout counters included - sums. The cell
  // id is dropped.
  // Both cell orders, so the larger value of every max column also comes
  // first once: a merge that keeps the last cell's value fails.
  const CellReport big = cell_report_from_row(distinct_row(100));
  for (const std::vector<CellReport>& cells :
       {std::vector<CellReport>{rep, big}, std::vector<CellReport>{big, rep}}) {
    FarmResult farm;
    farm.cells = cells;
    const std::vector<u64> total = values(farm.total());
    for (size_t i = 0; i < header.size(); ++i) {
      const std::string& col = header[i];
      const u64 a = i + 1, b = (i + 1) * 100;
      const u64 want = col == "cell" ? 0
                       : (col == "ttis" || col == "worst_cycles" ||
                          col == "p50_cycles" || col == "p99_cycles")
                           ? std::max(a, b)
                           : a + b;
      EXPECT_EQ(total[i], want) << col << (cells[0] == rep ? "" : " (reversed)");
    }
  }
}

// ------------------------------------------------------------------ FAPI ---

TEST(FapiTest, SlotRequestTotalsAndIndicationFailures) {
  SlotRequest req;
  req.cell = 1;
  req.tti = 7;
  req.pdus.push_back(PduDescriptor{0, 0, true, 1, 0, 0, 0, 4, 10.0, 96});
  req.pdus.push_back(PduDescriptor{1, 2, false, 3, 0, 0, 4, 4, 14.8, 96});
  EXPECT_EQ(req.total_bits(), 192u);

  SlotIndication ind;
  ind.crcs.push_back(CrcResult{0, 0, true, 0, 96});
  ind.crcs.push_back(CrcResult{1, 2, false, 5, 96});
  EXPECT_EQ(ind.failed(), 1u);
  EXPECT_NEAR(ind.crcs[1].ber(), 5.0 / 96.0, 1e-12);
}

TEST(FapiTest, ChaseCombiningBoostsEffectiveSnr) {
  EXPECT_DOUBLE_EQ(phy::Channel::chase_combined_snr_db(10.0, 1), 10.0);
  EXPECT_NEAR(phy::Channel::chase_combined_snr_db(10.0, 2), 13.0103, 1e-3);
  EXPECT_NEAR(phy::Channel::chase_combined_snr_db(10.0, 4), 16.0206, 1e-3);
}

}  // namespace
}  // namespace tsim::mac
