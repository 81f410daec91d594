// Checkpoint/restore contract tests (sim/snapshot.h and the save_state/
// restore_state entry points layered on it): container integrity against
// bit-flips and truncation, refusal of version-1 files, scheduler round trips
// at a slot boundary for every kernel precision with fast-forward variants
// resident, refusal of a resident-program list that conflicts with a fresh
// scheduler's handles, cell round-trips with HARQ attempts in flight past the
// feedback timeout (ECC on and off), the farm's snapshot resume ladder, and
// checkpoint-resumed crash recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "mac/farm.h"
#include "ran/scheduler.h"
#include "sim/snapshot.h"

namespace tsim {
namespace {

using kern::Precision;

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

std::string scheduler_payload(const ran::SlotScheduler& s) {
  sim::SnapshotWriter w;
  s.save_state(w);
  return w.payload();
}

std::string cell_payload(const mac::Cell& c) {
  sim::SnapshotWriter w;
  c.save_state(w);
  return w.payload();
}

/// Fresh per-test scratch directory under the system temp dir, removed on
/// destruction (tests run concurrently under ctest -j, so names must not
/// collide).
struct ScratchDir {
  std::string path;
  explicit ScratchDir(const char* tag) {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        (std::string("tsim_") + tag + "_XXXXXX"))
                           .string();
    char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

mac::FarmConfig small_farm() {
  mac::FarmConfig cfg;
  cfg.cells = 2;
  cfg.ttis = 12;
  cfg.ues_per_cell = 8;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.seed = 0xB0B5;
  return cfg;
}

// ---------------------------------------------------------------------------
// Container format: CRC, primitives, corruption detection.
// ---------------------------------------------------------------------------

TEST(Snapshot, Crc32KnownAnswer) {
  // The ISO-HDLC check value: CRC-32 of the ASCII digits "123456789".
  EXPECT_EQ(sim::crc32("123456789", 9), 0xCBF43926u);
  // Chaining partial buffers equals one shot.
  const u32 a = sim::crc32("12345", 5);
  EXPECT_EQ(sim::crc32("6789", 4, a), 0xCBF43926u);
}

TEST(Snapshot, WriterReaderRoundTripsEveryPrimitive) {
  sim::SnapshotWriter w;
  w.tag(0xABCD0001);
  w.write_u8(0x5A);
  w.write_bool(true);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_string("hello snapshot");
  w.write_vec_u8({1, 2, 3});
  w.write_vec_u32({0xFFFFFFFFu, 0});
  w.write_vec_u64({7, 8, 9});

  sim::SnapshotReader r(w.payload());
  r.expect_tag(0xABCD0001, "test section");
  EXPECT_EQ(r.read_u8(), 0x5A);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_string(), "hello snapshot");
  EXPECT_EQ(r.read_vec_u8(), (std::vector<u8>{1, 2, 3}));
  EXPECT_EQ(r.read_vec_u32(), (std::vector<u32>{0xFFFFFFFFu, 0}));
  EXPECT_EQ(r.read_vec_u64(), (std::vector<u64>{7, 8, 9}));
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Snapshot, ReaderRejectsCorruptLengthAndBadTag) {
  sim::SnapshotWriter w;
  w.write_u64(0xFFFFFFFFFFFFFFFFull);  // absurd length prefix
  {
    sim::SnapshotReader r(w.payload());
    EXPECT_THROW(r.read_vec_u64(), sim::SnapshotError);
  }
  {
    sim::SnapshotWriter t;
    t.tag(1);
    sim::SnapshotReader r(t.payload());
    EXPECT_THROW(r.expect_tag(2, "mismatched"), sim::SnapshotError);
  }
  {
    sim::SnapshotReader r(std::string("ab"));  // too short for a u32
    EXPECT_THROW(r.read_u32(), sim::SnapshotError);
    try {
      sim::SnapshotReader r2(std::string("ab"), "some_file.snap");
      r2.read_u32();
      FAIL() << "expected SnapshotError";
    } catch (const sim::SnapshotError& e) {
      EXPECT_EQ(e.file(), "some_file.snap");
      EXPECT_EQ(e.offset(), 0u);
    }
  }
}

TEST(Snapshot, FileRoundTripIsAtomicAndClean) {
  ScratchDir dir("file");
  const std::string path = dir.path + "/round.snap";
  const std::string payload = "payload bytes \x00\x01\x02 with nul";
  sim::write_snapshot_file(path, 0x4B494E44, payload);
  EXPECT_EQ(sim::read_snapshot_file(path, 0x4B494E44), payload);
  // The atomic write leaves no temp file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Wrong kind is rejected even though the bytes are intact.
  EXPECT_THROW(sim::read_snapshot_file(path, 0x4B494E45), sim::SnapshotError);
}

TEST(Snapshot, TruncatedFilesAreDetectedAtEveryBoundary) {
  ScratchDir dir("trunc");
  const std::string path = dir.path + "/t.snap";
  sim::write_snapshot_file(path, 7, std::string(64, 'x'));
  const std::string whole = slurp(path);
  ASSERT_EQ(whole.size(), 24u + 64u);
  // Mid-header, exactly-header, and mid-payload truncations must all throw
  // SnapshotError (never a silent short read).
  for (const size_t keep : {size_t{3}, size_t{12}, size_t{24}, size_t{50}}) {
    spit(path, whole.substr(0, keep));
    EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError)
        << "truncated to " << keep << " bytes";
  }
  // Trailing garbage is corruption too.
  spit(path, whole + "zz");
  EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError);
}

TEST(Snapshot, BitFlipsAreDetectedEverywhere) {
  ScratchDir dir("flip");
  const std::string path = dir.path + "/f.snap";
  sim::write_snapshot_file(path, 7, std::string(64, 'y'));
  const std::string whole = slurp(path);
  // Flip one bit in every region: magic, version, kind, CRC, size, payload.
  for (const size_t at : {size_t{1}, size_t{5}, size_t{9}, size_t{13},
                          size_t{17}, size_t{30}, whole.size() - 1}) {
    std::string bad = whole;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    spit(path, bad);
    EXPECT_THROW(sim::read_snapshot_file(path, 7), sim::SnapshotError)
        << "bit flip at byte " << at;
  }
  // And the pristine file still reads back.
  spit(path, whole);
  EXPECT_EQ(sim::read_snapshot_file(path, 7), std::string(64, 'y'));
}

// ---------------------------------------------------------------------------
// Scheduler round-trips at a slot boundary.
// ---------------------------------------------------------------------------

/// Two geometries on the 16-subcarrier carrier, whose 12- and 4-problem
/// allocations leave most 8-core batches partly filled.
ran::TrafficConfig two_geometry_traffic() {
  ran::TrafficConfig cfg;
  cfg.carrier.bandwidth_hz = 0.5e6;  // 16 subcarriers
  cfg.carrier.symbols_per_slot = 2;
  cfg.groups = {
      ran::UeGroup{"a", 4, 4, 16, 12.0, phy::ChannelType::kRayleigh, 3.0},
      ran::UeGroup{"b", 2, 4, 4, 8.0, phy::ChannelType::kAwgn, 1.0},
  };
  cfg.seed = 0x5C4ED;
  return cfg;
}

/// Two clusters and two geometries: the locality policy calibrates, so a
/// fresh scheduler's cluster 0 already holds both full programs.
ran::ClusterPoolConfig two_cluster_pool(Precision prec) {
  ran::ClusterPoolConfig cfg;
  cfg.num_clusters = 2;
  cfg.host_threads = 1;
  cfg.cluster = tera::TeraPoolConfig::tiny();
  cfg.prec = prec;
  cfg.problems_per_core = 1;
  cfg.batch_cores = 8;
  cfg.fast_forward = true;
  return cfg;
}

class SchedulerPrecisionRoundTrip : public ::testing::TestWithParam<Precision> {};

TEST_P(SchedulerPrecisionRoundTrip, SlotBoundaryCutContinuesBitIdentically) {
  // Run two slots, capture, restore into a fresh scheduler, and run two
  // more slots on both: every SlotResult and the final payloads must agree.
  const ran::TrafficConfig traffic = two_geometry_traffic();
  const ran::ClusterPoolConfig pool = two_cluster_pool(GetParam());
  ran::TrafficGenerator gen(traffic);
  ran::SlotScheduler a(pool, traffic.groups);
  for (u64 t = 0; t < 2; ++t) a.run_slot(gen.slot(t));
  // Shrunk variants are resident beside calibration's full programs.
  ASSERT_GT(a.fast_forward_stats().shrunk_batches, 0u);

  ran::SlotScheduler b(pool, traffic.groups);
  sim::SnapshotReader r(scheduler_payload(a));
  b.restore_state(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(scheduler_payload(a), scheduler_payload(b));

  for (u64 t = 2; t < 4; ++t) {
    const ran::SlotWorkload slot = gen.slot(t);
    EXPECT_TRUE(a.run_slot(slot) == b.run_slot(slot)) << "TTI " << t;
  }
  EXPECT_EQ(scheduler_payload(a), scheduler_payload(b));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, SchedulerPrecisionRoundTrip,
                         ::testing::Values(Precision::k16Half,
                                           Precision::k16WDotp,
                                           Precision::k16CDotp,
                                           Precision::k8Quarter,
                                           Precision::k8WDotp),
                         [](const auto& info) {
                           return std::string(kern::name_of(info.param));
                         });

TEST(Snapshot, SchedulerRestoreRefusesConflictingResidentList) {
  // Calibration made geometries 0 and 1 resident on cluster 0 at handles 0
  // and 1. A snapshot that lists them the other way round would re-bind
  // each handle to the other program, so restore must refuse it.
  const ran::TrafficConfig traffic = two_geometry_traffic();
  const ran::ClusterPoolConfig pool = two_cluster_pool(Precision::k16CDotp);
  const ran::SlotScheduler a(pool, traffic.groups);
  const std::string payload = scheduler_payload(a);

  // Scheduler section: tag, geometry and cluster counts, then cluster 0's
  // loaded_geometry and its resident list of (geometry, cores) entries.
  sim::SnapshotReader in(payload);
  sim::SnapshotWriter out;
  out.write_u32(in.read_u32());
  out.write_u64(in.read_u64());
  out.write_u64(in.read_u64());
  out.write_i64(in.read_i64());
  const u64 n = in.read_u64();
  ASSERT_EQ(n, 2u);
  out.write_u64(n);
  std::pair<u32, u32> list[2];
  for (auto& [geometry, cores] : list) {
    geometry = in.read_u32();
    cores = in.read_u32();
  }
  ASSERT_NE(list[0].first, list[1].first);
  for (const auto& [geometry, cores] : {list[1], list[0]}) {
    out.write_u32(geometry);
    out.write_u32(cores);
  }
  const std::string swapped = out.payload() + payload.substr(in.offset());

  ran::SlotScheduler same(pool, traffic.groups);
  sim::SnapshotReader ok(payload);
  EXPECT_NO_THROW(same.restore_state(ok));

  ran::SlotScheduler b(pool, traffic.groups);
  sim::SnapshotReader bad(swapped);
  EXPECT_THROW(b.restore_state(bad), sim::SnapshotError);
}

// ---------------------------------------------------------------------------
// Cell round-trips: HARQ in flight, feedback timers, delayed indications.
// ---------------------------------------------------------------------------

class CellRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(CellRoundTrip, WithHarqInFlightPastTimeout) {
  // Capture at every TTI boundary of a soak with every stateful mechanism
  // live: HARQ attempts in flight (some past the feedback timeout),
  // fault-delayed indications pending, retransmissions queued, a hung
  // batch's barrier counter and (ECC off) silent upsets left in L1. Every
  // restored cell must finish the soak byte-identically. Zeroing L1 on
  // restore changes the report for most of these cuts.
  mac::FarmConfig cfg = small_farm();
  cfg.fault.enabled = true;
  cfg.fault.hart_trap_rate = 0.3;
  cfg.fault.hart_hang_rate = 0.2;
  cfg.fault.l1_flip_rate = 0.5;
  cfg.fault.ecc = GetParam();
  cfg.fault.drop_indication_rate = 0.2;
  cfg.fault.delay_indication_rate = 0.3;
  cfg.fault.delay_slots = 3;
  cfg.harq.feedback_timeout_slots = 2;  // shorter than the delivery delay

  mac::Cell clean(cfg.cell_config(0));
  for (u32 t = 0; t < cfg.ttis; ++t) clean.step(t);

  mac::Cell a(cfg.cell_config(0));
  for (u32 cut = 1; cut < cfg.ttis; ++cut) {
    a.step(cut - 1);
    mac::Cell b(cfg.cell_config(0));
    sim::SnapshotReader r(cell_payload(a));
    b.restore_state(r);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_EQ(cell_payload(a), cell_payload(b)) << "cut at TTI " << cut;
    for (u32 t = cut; t < cfg.ttis; ++t) b.step(t);
    EXPECT_EQ(cell_payload(b), cell_payload(clean)) << "cut at TTI " << cut;
    EXPECT_TRUE(b.report() == clean.report()) << "cut at TTI " << cut;
  }
  // The scenario actually exercised timeouts and delays.
  EXPECT_GT(clean.report().harq.timeouts + clean.report().delayed_ind, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ecc, CellRoundTrip, ::testing::Bool(),
                         [](const auto& info) {
                           return std::string(info.param ? "EccOn" : "EccOff");
                         });

TEST(Snapshot, CellRestoreRefusesForeignFingerprint) {
  mac::FarmConfig cfg = small_farm();
  mac::Cell a(cfg.cell_config(0));
  a.step(0);
  const std::string payload = cell_payload(a);

  // Different seed => different trajectory fingerprint: must refuse.
  mac::FarmConfig other = cfg;
  other.seed = cfg.seed + 1;
  mac::Cell b(other.cell_config(0));
  sim::SnapshotReader r(payload);
  EXPECT_THROW(b.restore_state(r), sim::SnapshotError);
}

// ---------------------------------------------------------------------------
// Farm snapshot files, the resume ladder, and checkpointed recovery.
// ---------------------------------------------------------------------------

TEST(Snapshot, ResumeLadderFallsPastCorruptedNewestSnapshot) {
  ScratchDir dir("ladder");
  mac::FarmConfig cfg = small_farm();
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;

  const mac::CellReport clean = mac::run_cell(cfg, 0);
  ASSERT_EQ(mac::list_cell_snapshots(dir.path, 0), (std::vector<u64>{4, 8}));

  // Corrupt the newest snapshot: resume must fall to TTI 4 and still finish
  // byte-identically.
  const std::string newest = mac::cell_snapshot_path(dir.path, 0, 8);
  std::string bytes = slurp(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  spit(newest, bytes);

  i64 from = -1;
  const mac::CellReport resumed = mac::run_cell(cfg, 0, true, &from);
  EXPECT_EQ(from, 4);
  EXPECT_TRUE(resumed == clean);

  // Truncate BOTH snapshots: the ladder bottoms out at a clean start.
  spit(newest, bytes.substr(0, 10));
  spit(mac::cell_snapshot_path(dir.path, 0, 4), "");
  const mac::CellReport fresh = mac::run_cell(cfg, 0, true, &from);
  EXPECT_EQ(from, -1);
  EXPECT_TRUE(fresh == clean);
}

TEST(Snapshot, VersionOneFilesAreRefusedAndResumeStartsClean) {
  ScratchDir dir("v1");
  mac::FarmConfig cfg = small_farm();
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::CellReport clean = mac::run_cell(cfg, 0);
  const std::vector<u64> ttis = mac::list_cell_snapshots(dir.path, 0);
  ASSERT_EQ(ttis, (std::vector<u64>{4, 8}));

  // Stamp every snapshot with format version 1 (header offset 4): the
  // reader refuses it before looking at the payload.
  for (const u64 t : ttis) {
    const std::string path = mac::cell_snapshot_path(dir.path, 0, t);
    std::string bytes = slurp(path);
    const u32 v1 = 1;
    std::memcpy(bytes.data() + 4, &v1, sizeof v1);
    spit(path, bytes);
    mac::Cell cell(cfg.cell_config(0));
    EXPECT_THROW(mac::load_cell_snapshot(cell, path), sim::SnapshotError);
  }

  // The resume ladder falls past both to a clean start.
  i64 from = 0;
  const mac::CellReport resumed = mac::run_cell(cfg, 0, true, &from);
  EXPECT_EQ(from, -1);
  EXPECT_TRUE(resumed == clean);
}

TEST(Snapshot, CheckpointedCrashRecoveryResumesAndMatchesClean) {
  ScratchDir dir("farm");
  mac::FarmConfig clean = small_farm();
  const mac::FarmResult want = mac::run_farm(clean);

  mac::FarmConfig faulted = clean;
  faulted.shards = 2;
  faulted.policy = mac::FarmPolicy::kRetry;
  faulted.host_fault.crash_shard = 1;
  faulted.checkpoint_every = 4;
  faulted.checkpoint_dir = dir.path;
  const mac::FarmResult got = mac::run_farm(faulted);

  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t c = 0; c < want.cells.size(); ++c)
    EXPECT_TRUE(got.cells[c] == want.cells[c]) << "cell " << c;
  ASSERT_FALSE(got.failures.empty());
  const mac::ShardFailure& f = got.failures[0];
  EXPECT_EQ(f.shard, 1u);
  EXPECT_TRUE(f.recovered);
  // The recovery record says which ladder rung each cell restarted from;
  // the crashed worker ran its cells to completion before dying mid-stream,
  // so snapshots must exist and the retry must NOT have restarted clean.
  ASSERT_EQ(f.resume_ttis.size(), f.cells.size());
  for (const i64 t : f.resume_ttis) EXPECT_GT(t, 0);
}

TEST(Snapshot, FarmResumeFlagReproducesInterruptedSoak) {
  // Simulate an interrupted soak: checkpoint a full run, then re-run with
  // resume=true against the populated directory - the "resumed" soak picks
  // every cell up from its newest snapshot and must reproduce the clean
  // result exactly.
  ScratchDir dir("resume");
  mac::FarmConfig cfg = small_farm();
  const mac::FarmResult want = mac::run_farm(cfg);

  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::FarmResult seeded = mac::run_farm(cfg);
  ASSERT_EQ(seeded.cells.size(), want.cells.size());

  cfg.resume = true;
  const mac::FarmResult resumed = mac::run_farm(cfg);
  ASSERT_EQ(resumed.cells.size(), want.cells.size());
  for (size_t c = 0; c < want.cells.size(); ++c) {
    EXPECT_TRUE(seeded.cells[c] == want.cells[c]) << "cell " << c;
    EXPECT_TRUE(resumed.cells[c] == want.cells[c]) << "cell " << c;
  }
}

// ---------------------------------------------------------------------------
// Bisection.
// ---------------------------------------------------------------------------

TEST(Snapshot, BisectFindsFirstDegradedTti) {
  ScratchDir dir("bisect");
  mac::FarmConfig cfg = small_farm();
  cfg.cells = 1;
  cfg.ttis = 32;
  cfg.checkpoint_every = 8;
  cfg.checkpoint_dir = dir.path;
  cfg.fault.enabled = true;
  cfg.fault.cluster_fail_tti = 13;  // cluster dies at TTI 13 onward

  const mac::BisectPredicate pred = mac::parse_bisect_predicate("degraded");
  const mac::BisectResult res = mac::bisect_cell(cfg, 0, pred);
  EXPECT_EQ(res.first_bad_tti, 13);
  // O(log snapshots) restores + at most one checkpoint interval replayed.
  EXPECT_LE(res.ttis_replayed, 8u);
  EXPECT_LE(res.snapshots_loaded, 4u);
  EXPECT_EQ(res.window_start, 8);
  ASSERT_FALSE(res.window_trace.empty());
  EXPECT_NE(res.window_trace.back().find("degraded=1"), std::string::npos);
}

TEST(Snapshot, BisectReportsNeverWhenPredicateCannotFire) {
  ScratchDir dir("bisect_none");
  mac::FarmConfig cfg = small_farm();
  cfg.cells = 1;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = dir.path;
  const mac::BisectPredicate pred = mac::parse_bisect_predicate("degraded");
  const mac::BisectResult res = mac::bisect_cell(cfg, 0, pred);
  EXPECT_EQ(res.first_bad_tti, -1);
}

TEST(Snapshot, BisectPredicateParsing) {
  EXPECT_EQ(mac::parse_bisect_predicate("miss").kind,
            mac::BisectPredicate::Kind::kDeadlineMiss);
  EXPECT_EQ(mac::parse_bisect_predicate("degraded").kind,
            mac::BisectPredicate::Kind::kDegradedSlot);
  const auto bler = mac::parse_bisect_predicate("bler=0.25");
  EXPECT_EQ(bler.kind, mac::BisectPredicate::Kind::kResidualBler);
  EXPECT_DOUBLE_EQ(bler.threshold, 0.25);
  EXPECT_THROW(mac::parse_bisect_predicate("nope"), SimError);
  EXPECT_THROW(mac::parse_bisect_predicate("bler=2"), SimError);
  EXPECT_THROW(mac::parse_bisect_predicate("bler="), SimError);
}

}  // namespace
}  // namespace tsim
