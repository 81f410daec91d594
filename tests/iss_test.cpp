// Fast ISS tests: program execution, timing model (static latencies + RAW
// scoreboard), multi-hart scheduling, barriers, wfi/wake, determinism, and
// equivalence of the superblock, convergence-batched and per-instruction
// reference paths.
#include <gtest/gtest.h>

#include <memory>

#include "iss/machine.h"
#include "kernels/mmse_program.h"
#include "rvasm/textasm.h"
#include "sim/cosim.h"
#include "tera/addr_map.h"

namespace tsim::iss {
namespace {

rvasm::Program prog(const std::string& text) { return rvasm::assemble(text); }

/// Convenience: machine with N harts on the tiny cluster. (Machine is neither
/// movable nor copyable - heap-allocate it.)
std::unique_ptr<Machine> make_machine(const std::string& text, u32 harts = 1,
                                      TimingConfig t = {},
                                      const tera::TeraPoolConfig& cluster =
                                          tera::TeraPoolConfig::tiny()) {
  auto m = std::make_unique<Machine>(cluster, t, harts);
  m->load_program(prog(text));
  return m;
}

TEST(Iss, RunsToExitStore) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x40000000   # exit MMIO
      li t1, 5
      sw t1, 0(t0)
  )");
  const auto r = m->run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 5u);
}

TEST(Iss, CountsInstructionsAndLoop) {
  auto m = make_machine(R"(
    _start:
      li t0, 10
      li t1, 0
    loop:
      addi t1, t1, 1
      addi t0, t0, -1
      bnez t0, loop
      li t2, 0x40000000
      sw t1, 0(t2)
  )");
  const auto r = m->run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 10u);
  // 2 + 10*3 + 2 (li t2 is li+nothing; sw) = 34-ish; exact: 2 + 30 + 1 + 1.
  EXPECT_EQ(m->hart(0).instructions(), 34u);
}

TEST(Iss, EbreakHaltsHart) {
  auto m = make_machine("_start:\n nop\n ebreak\n");
  const auto r = m->run();
  EXPECT_FALSE(r.exited);
  EXPECT_TRUE(m->hart(0).state.halted);
  EXPECT_FALSE(m->hart(0).state.trapped);
}

TEST(Iss, InvalidInstructionTraps) {
  auto m = make_machine("_start:\n .word 0xFFFFFFFF\n");
  m->run();
  EXPECT_TRUE(m->hart(0).state.trapped);
}

TEST(Iss, PutcharConsole) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x40000004
      li t1, 72        # 'H'
      sw t1, 0(t0)
      li t1, 105       # 'i'
      sw t1, 0(t0)
      ebreak
  )");
  m->run();
  EXPECT_EQ(m->memory().console(), "Hi");
}

// ----- timing model -----

TEST(IssTiming, RawStallOnLoadUse) {
  // Immediate use of a load result stalls for the static memory latency.
  auto strict = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1    # immediate consumer
      ebreak
  )");
  strict->run();
  const u64 with_use = strict->hart(0).cycles();

  auto relaxed = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t2, zero, 1  # independent instruction
      ebreak
  )");
  relaxed->run();
  const u64 without_use = relaxed->hart(0).cycles();
  EXPECT_GT(with_use, without_use);
  EXPECT_GT(strict->hart(0).raw_stall_cycles, 0u);
  EXPECT_EQ(relaxed->hart(0).raw_stall_cycles, 0u);
}

TEST(IssTiming, ScoreboardOffRemovesStalls) {
  TimingConfig t;
  t.scoreboard = false;
  auto m = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1
      ebreak
  )", 1, t);
  m->run();
  EXPECT_EQ(m->hart(0).raw_stall_cycles, 0u);
}

TEST(IssTiming, StaticMemoryLatencyIsConfigurable) {
  const auto body = R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      addi t1, t1, 1
      ebreak
  )";
  TimingConfig t9;  // default 9
  auto m9 = make_machine(body, 1, t9);
  m9->run();
  TimingConfig t1;
  t1.static_mem_latency = 1;
  auto m1 = make_machine(body, 1, t1);
  m1->run();
  EXPECT_GT(m9->hart(0).cycles(), m1->hart(0).cycles());
}

TEST(IssTiming, TakenBranchCostsMore) {
  auto taken = make_machine(R"(
    _start:
      li t0, 1
      bnez t0, skip
      nop
    skip:
      ebreak
  )");
  taken->run();
  auto fallthrough = make_machine(R"(
    _start:
      li t0, 0
      bnez t0, skip
      nop
    skip:
      ebreak
  )");
  fallthrough->run();
  // Same instruction count +-1; the taken branch pays the flush penalty.
  EXPECT_GT(taken->hart(0).cycles() + 1, fallthrough->hart(0).cycles());
}

TEST(IssTiming, MixHistogramIsPopulated) {
  auto m = make_machine(R"(
    _start:
      li t0, 0x100
      lw t1, 0(t0)
      sw t1, 4(t0)
      mul t2, t1, t1
      fadd.h t3, t1, t2
      ebreak
  )");
  m->run();
  const auto& mix = m->hart(0).mix;
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kLoad)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kStore)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kMul)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kFp)], 0u);
  EXPECT_GT(mix[static_cast<size_t>(rv::Mix::kAlu)], 0u);
}

// ----- multi-hart -----

const char* kParallelSum = R"(
    # Each hart adds hartid+1 into a shared accumulator with amoadd, then
    # hart 0 exits after a software barrier (amoadd counter + wfi/wake).
    _start:
      csrr t0, mhartid
      addi t1, t0, 1
      li t2, 0x200          # accumulator
      amoadd.w zero, t1, (t2)
      # barrier
      li t3, 0x80           # barrier counter
      li t4, 1
      amoadd.w t5, t4, (t3)
      li t6, 3              # nharts-1
      beq t5, t6, last
      wfi
      j after
    last:
      sw zero, 0(t3)
      li s2, 0x40000008     # wake MMIO
      li s3, -1
      sw s3, 0(s2)
    after:
      csrr t0, mhartid
      bnez t0, park
      li s4, 0x200
      lw s5, 0(s4)
      li s6, 0x40000000
      sw s5, 0(s6)          # exit with the sum
    park:
      wfi
      j park
)";

/// The kParallelSum barrier program generalized to `nharts` harts.
std::string parallel_sum(u32 nharts) {
  std::string body(kParallelSum);
  const auto pos = body.find("li t6, 3");
  EXPECT_NE(pos, std::string::npos);
  body.replace(pos, 8, "li t6, " + std::to_string(nharts - 1));
  return body;
}

TEST(IssMultiHart, BarrierAndSharedMemory) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  const auto r = m.run();
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 1u + 2 + 3 + 4);
}

TEST(IssMultiHart, RerunAfterResetIsDeterministic) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  const auto r1 = m.run();
  const u64 c1 = m.estimated_cycles();
  const std::vector<u32> zero_word = {0};
  m.memory().host_write_words(0x200, zero_word);  // clear accumulator
  m.reset_harts();
  const auto r2 = m.run();
  EXPECT_EQ(r1.exit_code, r2.exit_code);
  EXPECT_EQ(c1, m.estimated_cycles());
}

TEST(IssMultiHart, DeadlockIsDetected) {
  auto m = make_machine("_start:\n wfi\n j _start\n", 2);
  const auto r = m->run();
  EXPECT_TRUE(r.deadlock);
}

TEST(IssMultiHart, WfiStallCyclesAccounted) {
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  m.load_program(prog(kParallelSum));
  m.run();
  // At least one non-last hart must have slept at the barrier.
  u64 total_wfi = 0;
  for (u32 i = 0; i < 4; ++i) total_wfi += m.hart(i).wfi_stall_cycles;
  EXPECT_GT(total_wfi, 0u);
}

TEST(Iss, MaxInstructionBudgetStopsRunaway) {
  auto m = make_machine("_start:\n j _start\n");
  const auto r = m->run(1000);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_FALSE(r.exited);
}

TEST(Iss, ExitOnExactInstructionBudgetIsReported) {
  // The exit store is the 3rd and last budgeted instruction: the RunResult
  // must still carry the exit status (a budget-boundary exit used to be
  // reported as not-exited because the early return skipped exited_).
  const char* body = R"(
    _start:
      lui t0, 0x40000     # exit MMIO base
      li t1, 5
      sw t1, 0(t0)
  )";
  auto m = make_machine(body);
  const auto r = m->run(3);
  EXPECT_EQ(r.instructions, 3u);
  EXPECT_TRUE(r.exited);
  EXPECT_EQ(r.exit_code, 5u);
}

TEST(Iss, TranslationCacheCoversProgram) {
  const auto p = prog("_start:\n nop\n ebreak\n");
  TranslationCache tc(p);
  EXPECT_EQ(tc.size(), p.words.size());
  EXPECT_NE(tc.lookup(p.base), nullptr);
  EXPECT_EQ(tc.lookup(p.base + 1), nullptr);        // misaligned
  EXPECT_EQ(tc.lookup(p.base + 0x10000), nullptr);  // out of range
}

TEST(Iss, SuperblockRunLengthsStopAtBoundaries) {
  // addi / addi / beq / addi / wfi / jal / .word garbage
  const auto p = prog(R"(
    _start:
      addi t0, zero, 1
      addi t1, zero, 2
      beq t0, t1, _start
      addi t2, zero, 3
      wfi
      j _start
      .word 0xFFFFFFFF
  )");
  TranslationCache tc(p);
  ASSERT_EQ(tc.size(), 7u);
  const auto run_len = [&](u32 idx) { return tc.entry(p.base + idx * 4)->run_len; };
  EXPECT_EQ(run_len(0), 3u);  // addi, addi, beq
  EXPECT_EQ(run_len(1), 2u);
  EXPECT_EQ(run_len(2), 1u);  // branch terminates its own run
  EXPECT_EQ(run_len(3), 2u);  // addi, wfi
  EXPECT_EQ(run_len(4), 1u);  // wfi
  EXPECT_EQ(run_len(5), 1u);  // jal
  EXPECT_EQ(run_len(6), 1u);  // invalid word heads its own run
  EXPECT_EQ(tc.entry(p.base + 1), nullptr);  // misaligned
  // Folded metadata matches the ISA table.
  const SbEntry* e = tc.entry(p.base);
  EXPECT_EQ(e->d.op, rv::Op::kAddi);
  EXPECT_NE(e->flags & kSbWritesRd, 0);
  EXPECT_EQ(e->flags & kSbStore, 0);
}

TEST(Iss, ScWakeTimestampsMatchTracedReference) {
  // sc.w is classified kAmo but stores through the same path as sw, so it
  // can hit the MMIO wake register; the fast path must refresh the wake
  // timestamp for it exactly like the per-instruction reference path does,
  // or the woken hart's wfi stall accounting diverges.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      bnez t0, waker
      wfi                  # hart 0 parks until the sc.w wake
      li t2, 0x40000000
      sw zero, 0(t2)       # exit
    waker:
      li t3, 0x40000008    # wake MMIO
      lr.w t4, (t3)
      sc.w t5, zero, (t3)  # store hart id 0 -> wakes hart 0
    park:
      wfi
      j park
  )";
  auto fast = make_machine(body, Machine::kMinBatchWidth);
  const auto rf = fast->run();
  auto ref = make_machine(body, Machine::kMinBatchWidth);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  const auto rr = ref->run();
  ASSERT_TRUE(rf.exited);
  ASSERT_TRUE(rr.exited);
  for (u32 h = 0; h < Machine::kMinBatchWidth; ++h) {
    EXPECT_EQ(fast->hart(h).cycles(), ref->hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(fast->hart(h).wfi_stall_cycles, ref->hart(h).wfi_stall_cycles)
        << "hart " << h;
  }
  EXPECT_GT(fast->hart(0).wfi_stall_cycles, 0u);
  EXPECT_GT(fast->batch_stats().batches, 0u);
}

// ----- resident-program cache -----

TEST(Iss, ResidentProgramCacheKeysByContentIdentity) {
  const auto p1 = prog("_start:\n li t0, 1\n ebreak\n");
  const auto p2 = prog("_start:\n li t0, 2\n ebreak\n");
  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 1);
  EXPECT_EQ(m.active_program(), Machine::kNoProgram);

  const auto h1 = m.load_program(p1);
  EXPECT_EQ(m.active_program(), h1);
  EXPECT_EQ(m.num_resident_programs(), 1u);

  const auto h2 = m.load_program(p2);
  EXPECT_NE(h2, h1);
  EXPECT_EQ(m.active_program(), h2);
  EXPECT_EQ(m.num_resident_programs(), 2u);

  // Reloading p1 - even via a freshly assembled, content-identical program
  // object - finds the resident entry instead of translating again.
  const auto p1_again = prog("_start:\n li t0, 1\n ebreak\n");
  EXPECT_EQ(m.load_program(p1_again), h1);
  EXPECT_EQ(m.num_resident_programs(), 2u);
  const u64 switches = m.program_switches();

  // Reloading the active program is a no-op plus reset (no image rewrite).
  EXPECT_EQ(m.load_program(p1), h1);
  EXPECT_EQ(m.program_switches(), switches);

  // select_program activates a resident program directly.
  m.select_program(h2);
  EXPECT_EQ(m.active_program(), h2);
  m.run();
  EXPECT_EQ(m.hart(0).state.x[5], 2u);  // t0 from p2
  EXPECT_THROW(m.select_program(99), SimError);
}

TEST(Iss, ResidentProgramSwapIsBitExactVsColdLoad) {
  // Machine A ping-pongs: barrier program, a second program that scribbles
  // over L1 and the (shared) L2 image range footprint, then the barrier
  // program again via the resident cache. Its final run must be bit-exact -
  // registers, cycles, stall accounting - against machine B's cold first
  // run of the same program.
  const char* scribble = R"(
    _start:
      li t0, 0x100
      li t1, 0xDEAD
      sw t1, 0(t0)
      sw t1, 4(t0)
      li t2, 0x40000000
      sw zero, 0(t2)
  )";
  Machine a(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  const auto h_sum = a.load_program(prog(kParallelSum));
  ASSERT_TRUE(a.run().exited);
  const auto h_scribble = a.load_program(prog(scribble));
  ASSERT_NE(h_scribble, h_sum);
  ASSERT_TRUE(a.run().exited);
  // Clear the accumulator the first barrier run left in L1, then swap the
  // resident barrier program back in (cache hit: no retranslation).
  const std::vector<u32> zero_word = {0};
  a.memory().host_write_words(0x200, zero_word);
  a.memory().host_write_words(0x80, zero_word);
  ASSERT_EQ(a.load_program(prog(kParallelSum)), h_sum);
  const auto ra = a.run();

  Machine b(tera::TeraPoolConfig::tiny(), TimingConfig{}, 4);
  b.load_program(prog(kParallelSum));
  const auto rb = b.run();

  ASSERT_TRUE(ra.exited);
  ASSERT_TRUE(rb.exited);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_EQ(ra.instructions, rb.instructions);
  for (u32 h = 0; h < 4; ++h) {
    EXPECT_EQ(a.hart(h).cycles(), b.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(a.hart(h).instructions(), b.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(a.hart(h).raw_stall_cycles, b.hart(h).raw_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wfi_stall_cycles, b.hart(h).wfi_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).state.x, b.hart(h).state.x) << "hart " << h;
  }
}

TEST(Iss, ProgramFingerprintSeparatesImages) {
  const auto p1 = prog("_start:\n li t0, 1\n ebreak\n");
  const auto p2 = prog("_start:\n li t0, 2\n ebreak\n");
  EXPECT_EQ(program_fingerprint(p1), program_fingerprint(p1));
  EXPECT_NE(program_fingerprint(p1), program_fingerprint(p2));
  auto moved = p1;
  moved.base += 0x1000;
  EXPECT_NE(program_fingerprint(p1), program_fingerprint(moved));

  // Identical images whose "_start" differs are distinct programs: the
  // resident cache must not return the first program's entry point for the
  // second (they execute differently).
  const auto entry_base = prog("_start:\n nop\n li t0, 7\n ebreak\n");
  const auto entry_later = prog("nop\n_start:\n li t0, 7\n ebreak\n");
  ASSERT_EQ(entry_base.words, entry_later.words);
  EXPECT_NE(program_entry_pc(entry_base), program_entry_pc(entry_later));
  EXPECT_NE(program_fingerprint(entry_base), program_fingerprint(entry_later));

  Machine m(tera::TeraPoolConfig::tiny(), TimingConfig{}, 1);
  const auto h1 = m.load_program(entry_base);
  const auto h2 = m.load_program(entry_later);
  EXPECT_NE(h1, h2);
  m.run();
  EXPECT_EQ(m.hart(0).instructions(), 2u);  // skipped the leading nop
}

// ----- SPMD convergence batching (see machine.h) -----
// The serial path (set_batching(false)) is the bit-exactness oracle: the
// batched dispatch must reproduce cycles, registers, stalls, and wake
// timestamps exactly on every workload below.

/// Expects hart-for-hart bit-identical state between two machines.
void expect_harts_identical(const Machine& a, const Machine& b) {
  ASSERT_EQ(a.num_harts(), b.num_harts());
  for (u32 h = 0; h < a.num_harts(); ++h) {
    EXPECT_EQ(a.hart(h).cycles(), b.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(a.hart(h).instructions(), b.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(a.hart(h).raw_stall_cycles, b.hart(h).raw_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wfi_stall_cycles, b.hart(h).wfi_stall_cycles) << "hart " << h;
    EXPECT_EQ(a.hart(h).wake_cycle, b.hart(h).wake_cycle) << "hart " << h;
    EXPECT_EQ(a.hart(h).state.x, b.hart(h).state.x) << "hart " << h;
    EXPECT_EQ(a.hart(h).mix, b.hart(h).mix) << "hart " << h;
  }
}

TEST(IssBatch, BatchedMatchesSerialOnBarrierWorkload) {
  constexpr u32 kHarts = Machine::kMinBatchWidth;
  Machine batched(tera::TeraPoolConfig::tiny(), TimingConfig{}, kHarts);
  ASSERT_TRUE(batched.batching());  // default on
  batched.load_program(prog(parallel_sum(kHarts)));
  const auto rb = batched.run();

  Machine serial(tera::TeraPoolConfig::tiny(), TimingConfig{}, kHarts);
  serial.set_batching(false);
  serial.load_program(prog(parallel_sum(kHarts)));
  const auto rs = serial.run();

  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(batched, serial);
  // All eight harts really did run in lockstep.
  EXPECT_GT(batched.batch_stats().batches, 0u);
  EXPECT_EQ(batched.batch_stats().width_max, kHarts);
  EXPECT_EQ(serial.batch_stats().batches, 0u);
}

TEST(IssBatch, BatchedMatchesSerialOnDeadlockWorkload) {
  auto batched = make_machine("_start:\n wfi\n j _start\n", Machine::kMinBatchWidth);
  const auto rb = batched->run();
  auto serial = make_machine("_start:\n wfi\n j _start\n", Machine::kMinBatchWidth);
  serial->set_batching(false);
  const auto rs = serial->run();
  EXPECT_TRUE(rb.deadlock);
  EXPECT_TRUE(rs.deadlock);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(*batched, *serial);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

TEST(IssBatch, SingleHartNeverBatches) {
  auto m = make_machine("_start:\n li t0, 0x40000000\n sw zero, 0(t0)\n", 1);
  EXPECT_TRUE(m->run().exited);
  EXPECT_EQ(m->batch_stats().batches, 0u);
  EXPECT_EQ(m->batch_stats().lockstep_instructions, 0u);
}

TEST(IssBatch, FullyDivergentPcsFallBackToSerial) {
  // Harts branch to per-hart infinite loops: after the first pass no two
  // awake harts share a pc, so batches stop forming and every turn takes
  // the serial path - results must stay bit-exact under a budget cut. The
  // budget leaves the first pass a full quantum per hart, so it batches.
  constexpr u32 kHarts = Machine::kMinBatchWidth;
  std::string body = "_start:\n  csrr t0, mhartid\n";
  for (u32 h = 1; h < kHarts; ++h)
    body += "  li t1, " + std::to_string(h) + "\n  beq t0, t1, loop" + std::to_string(h) + "\n";
  for (u32 h = 0; h < kHarts; ++h) {
    const std::string s = "s" + std::to_string(h);
    body += "loop" + std::to_string(h) + ":\n  addi " + s + ", " + s + ", " +
            std::to_string(h + 1) + "\n  j loop" + std::to_string(h) + "\n";
  }
  constexpr u64 kBudget = 5000;
  auto batched = make_machine(body, kHarts);
  const auto rb = batched->run(kBudget);
  auto serial = make_machine(body, kHarts);
  serial->set_batching(false);
  const auto rs = serial->run(kBudget);
  EXPECT_EQ(rb.instructions, kBudget);
  EXPECT_EQ(rs.instructions, kBudget);
  expect_harts_identical(*batched, *serial);
  // Divergence was actually exercised (first-turn batch split on the
  // hartid branches), and the budget cut landed on a serial turn.
  EXPECT_GT(batched->batch_stats().batches, 0u);
  EXPECT_GT(batched->batch_stats().split_divergence, 0u);
}

TEST(IssBatch, MidSuperblockQuantumExpiryInsideBatch) {
  // A straight-line run longer than the scheduler quantum: the quantum
  // expires mid-superblock inside the batch, which must re-form at the
  // interior pc next turn and still match the serial path exactly.
  std::string body = "_start:\n";
  for (int i = 0; i < 300; ++i) body += "  addi t1, t1, 1\n";
  body += "  li t2, 0x40000000\n  sw t1, 0(t2)\n";
  auto batched = make_machine(body, Machine::kMinBatchWidth);
  const auto rb = batched->run();
  auto serial = make_machine(body, Machine::kMinBatchWidth);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_harts_identical(*batched, *serial);
  // The replay consumed whole quanta (trace exhausted at the budget), so
  // the batch really did span a superblock boundary cut.
  EXPECT_GT(batched->batch_stats().batches, 0u);
  EXPECT_GT(batched->batch_stats().split_budget, 0u);
  EXPECT_GT(batched->batch_stats().avg_run_length(), 100.0);
}

TEST(IssBatch, BudgetedRunsAreExactAndIdenticalToSerial) {
  // max_instructions semantics must be untouched by batching: the exact
  // same instruction count retires, and per-hart state matches bit for bit
  // (a batch only forms with full-quantum headroom for every member). The
  // budget covers 10 of the 16 harts' first quanta, so the first batch is
  // cut to 10 members by its headroom, not by the hart count.
  constexpr u32 kHarts = 2 * Machine::kMinBatchWidth;
  constexpr u64 kBudget = 2600;
  auto batched = make_machine("_start:\n j _start\n", kHarts);
  const auto rb = batched->run(kBudget);
  auto serial = make_machine("_start:\n j _start\n", kHarts);
  serial->set_batching(false);
  const auto rs = serial->run(kBudget);
  EXPECT_EQ(rb.instructions, kBudget);
  EXPECT_EQ(rs.instructions, kBudget);
  EXPECT_FALSE(rb.exited);
  expect_harts_identical(*batched, *serial);
  EXPECT_GT(batched->batch_stats().batches, 0u);
  EXPECT_EQ(batched->batch_stats().width_max, 10u);
}

TEST(IssBatch, ScWakeTimestampsMatchSerial) {
  // The sc.w wake path: the woken hart's wake timestamp (and hence its wfi
  // stall accounting) must be identical when the waker runs as a batch
  // follower instead of a serial turn.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      bnez t0, waker
      wfi                  # hart 0 parks until the sc.w wake
      li t2, 0x40000000
      sw zero, 0(t2)       # exit
    waker:
      li t3, 0x40000008    # wake MMIO
      lr.w t4, (t3)
      sc.w t5, zero, (t3)  # store hart id 0 -> wakes hart 0
    park:
      wfi
      j park
  )";
  auto batched = make_machine(body, Machine::kMinBatchWidth);
  const auto rb = batched->run();
  auto serial = make_machine(body, Machine::kMinBatchWidth);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited);
  ASSERT_TRUE(rs.exited);
  expect_harts_identical(*batched, *serial);
  EXPECT_GT(batched->hart(0).wfi_stall_cycles, 0u);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

TEST(IssBatch, NarrowGroupsTakeSerialTurns) {
  // Machine::kMinBatchWidth gates batch formation: a same-pc run of fewer
  // harts takes ordinary serial turns, so it never forms a batch and stays
  // bit-exact with the serial oracle.
  constexpr u32 kMin = Machine::kMinBatchWidth;
  {
    SCOPED_TRACE("one hart below the minimum width");
    auto narrow = make_machine(parallel_sum(kMin - 1), kMin - 1);
    auto serial = make_machine(parallel_sum(kMin - 1), kMin - 1);
    serial->set_batching(false);
    const auto rn = narrow->run();
    const auto rs = serial->run();
    ASSERT_TRUE(rn.exited && rs.exited);
    EXPECT_EQ(rn.instructions, rs.instructions);
    EXPECT_EQ(narrow->batch_stats().batches, 0u);
    EXPECT_EQ(narrow->batch_stats().lockstep_instructions, 0u);
    expect_harts_identical(*narrow, *serial);
  }
  {
    SCOPED_TRACE("exactly the minimum width");
    auto m = make_machine(parallel_sum(kMin), kMin);
    ASSERT_TRUE(m->run().exited);
    EXPECT_GT(m->batch_stats().batches, 0u);
    EXPECT_EQ(m->batch_stats().width_max, kMin);
  }
  {
    // Sixteen harts split by mhartid into a group of 12 and a group of 4.
    // Both loops outlast a quantum, so the groups re-converge at their own
    // pcs: the 12 re-form a batch each turn and the 4 take serial turns.
    SCOPED_TRACE("groups of 12 and 4");
    const char* body = R"(
      _start:
        csrr t0, mhartid
        li t1, 12
        bgeu t0, t1, small
        li t2, 300
      loop_a:
        addi s0, s0, 3
        mul s1, s0, t0
        addi t2, t2, -1
        bnez t2, loop_a
        ebreak
      small:
        li t2, 200
      loop_b:
        xor s0, s0, t0
        addi s0, s0, 5
        addi t2, t2, -1
        bnez t2, loop_b
        ebreak
    )";
    constexpr u32 kHarts = 16;
    auto serial = make_machine(body, kHarts);
    serial->set_batching(false);
    const auto rs = serial->run();
    auto batched = make_machine(body, kHarts);
    const auto rb = batched->run();
    EXPECT_EQ(rb.instructions, rs.instructions);
    expect_harts_identical(*batched, *serial);
    const BatchStats& st = batched->batch_stats();
    EXPECT_GT(st.batches, 0u);
    for (u32 w = 0; w < kMin && w < st.width_hist.size(); ++w)
      EXPECT_EQ(st.width_hist[w], 0u) << "width " << w;
  }
}

TEST(Iss, SuperblockFastPathMatchesTracedReferenceOnBarriers) {
  // The wfi/wake-heavy barrier program, fast path vs the per-instruction
  // reference path (forced by a no-op trace hook): registers, instruction
  // counts, and cycle counts must be bit-identical.
  constexpr u32 kHarts = Machine::kMinBatchWidth;
  Machine fast(tera::TeraPoolConfig::tiny(), TimingConfig{}, kHarts);
  fast.load_program(prog(parallel_sum(kHarts)));
  const auto rf = fast.run();

  Machine ref(tera::TeraPoolConfig::tiny(), TimingConfig{}, kHarts);
  ref.set_trace([](u32, u32, const rv::Decoded&) {});
  ref.load_program(prog(parallel_sum(kHarts)));
  const auto rr = ref.run();

  EXPECT_TRUE(rf.exited);
  EXPECT_TRUE(rr.exited);
  EXPECT_EQ(rf.exit_code, rr.exit_code);
  EXPECT_EQ(rf.instructions, rr.instructions);
  for (u32 h = 0; h < kHarts; ++h) {
    EXPECT_EQ(fast.hart(h).cycles(), ref.hart(h).cycles()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).instructions(), ref.hart(h).instructions()) << "hart " << h;
    EXPECT_EQ(fast.hart(h).state.x, ref.hart(h).state.x) << "hart " << h;
  }
  EXPECT_GT(fast.batch_stats().batches, 0u);
}

// ----- SoA hart-state layout (see hart.h) -----
// The vectorized lockstep sweep reads/writes the machine-owned column
// arrays; these tests pin its results - including the full RAW scoreboard,
// which expect_harts_identical does not cover - against the serial oracle
// and the per-instruction traced reference across the state transitions the
// column passes handle specially (divergence splits, park/wake, budget
// cuts, generic-op fallbacks).

/// Hart-for-hart equality including the 32-entry RAW scoreboard snapshot.
void expect_scoreboards_identical(const Machine& a, const Machine& b) {
  expect_harts_identical(a, b);
  for (u32 h = 0; h < a.num_harts(); ++h)
    EXPECT_EQ(a.hart(h).ready, b.hart(h).ready) << "hart " << h;
}

TEST(IssSoa, ScoreboardSnapshotMatchesTracedReference) {
  // A load-use + FP chain leaves non-trivial per-register ready times; the
  // snapshot assembled from the ready columns must equal the traced
  // reference path entry for entry.
  const char* body = R"(
    _start:
      li t0, 0x100
      sw t0, 0(t0)
      lw t1, 0(t0)        # load-use: ready[t1] lands late
      addi t2, t1, 7
      mul t3, t2, t2      # multi-cycle result latency
      sw t3, 4(t0)
      ebreak
  )";
  auto fast = make_machine(body, Machine::kMinBatchWidth);
  fast->run();
  auto ref = make_machine(body, Machine::kMinBatchWidth);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  ref->run();
  for (u32 h = 0; h < Machine::kMinBatchWidth; ++h) {
    EXPECT_EQ(fast->hart(h).ready, ref->hart(h).ready) << "hart " << h;
    EXPECT_EQ(fast->hart(h).cycles(), ref->hart(h).cycles()) << "hart " << h;
  }
  EXPECT_GT(fast->batch_stats().batches, 0u);
}

TEST(IssSoa, SixteenHartDivergenceAndParkWakeMatchesOracles) {
  // All sixteen tiny-cluster harts: heterogeneous per-hart work before a
  // wfi/wake barrier forces batch splits, parking, and re-formation. The
  // batched SoA sweep must match both the serial oracle and the traced
  // reference bit for bit, scoreboard included.
  const std::string body = parallel_sum(16);
  auto batched = make_machine(body, 16);
  const auto rb = batched->run();
  auto serial = make_machine(body, 16);
  serial->set_batching(false);
  const auto rs = serial->run();
  auto ref = make_machine(body, 16);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  const auto rr = ref->run();
  ASSERT_TRUE(rb.exited && rs.exited && rr.exited);
  EXPECT_EQ(rb.exit_code, (16u * 17u) / 2u);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  EXPECT_EQ(rb.instructions, rr.instructions);
  expect_scoreboards_identical(*batched, *serial);
  expect_scoreboards_identical(*batched, *ref);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

TEST(IssSoa, MidSuperblockBudgetCutMatchesSerial) {
  // The budget expires inside a long superblock after a lockstep sweep: the
  // run must retire exactly the budgeted count and leave every column
  // (cycles, stalls, scoreboard) as the serial oracle does. Each budget
  // covers one full-quantum batch of all harts plus a cut that lands
  // mid-superblock in a later turn.
  constexpr u32 kHarts = Machine::kMinBatchWidth;
  constexpr u64 kFirstPass = u64{kHarts} * 256;  // one quantum per hart
  std::string body = "_start:\n";
  for (int i = 0; i < 600; ++i) body += "  addi t1, t1, 1\n";
  body += "loop:\n  j loop\n";
  for (const u64 budget : {kFirstPass + 150 * kHarts + 3, kFirstPass + 199 * kHarts + 1}) {
    auto batched = make_machine(body, kHarts);
    const auto rb = batched->run(budget);
    auto serial = make_machine(body, kHarts);
    serial->set_batching(false);
    const auto rs = serial->run(budget);
    EXPECT_EQ(rb.instructions, budget);
    EXPECT_EQ(rs.instructions, budget);
    expect_scoreboards_identical(*batched, *serial);
    EXPECT_GT(batched->batch_stats().batches, 0u);
  }
}

TEST(IssSoa, GenericFallbackOpsMatchSerial) {
  // Ops without a specialized sweep kernel (xor/or/and/srl/slt...) run
  // through the generic per-member loop inside a batch; mixing them with
  // specialized ops must stay bit-exact vs the serial oracle.
  const char* body = R"(
    _start:
      csrr t0, mhartid
      addi t1, t0, 5
    loop:
      xori t2, t1, 0x3C
      or t3, t2, t0
      and t4, t3, t1
      srli t5, t4, 1
      slt t6, t5, t1
      sltu s2, t1, t5
      sub s3, s2, t6
      addi t1, t1, -1
      bnez t1, loop
      li s4, 0x40000000
      sw s3, 0(s4)
  )";
  auto batched = make_machine(body, 8);
  const auto rb = batched->run();
  auto serial = make_machine(body, 8);
  serial->set_batching(false);
  const auto rs = serial->run();
  ASSERT_TRUE(rb.exited && rs.exited);
  EXPECT_EQ(rb.exit_code, rs.exit_code);
  EXPECT_EQ(rb.instructions, rs.instructions);
  expect_scoreboards_identical(*batched, *serial);
  EXPECT_GT(batched->batch_stats().batches, 0u);
}

// ----- the real workload: barrier-synchronized parallel MMSE -----

/// Machine running the 4x4 16-bit MMSE kernel on `num_cores` harts of the
/// tiny cluster, one staged Rayleigh problem per core.
std::unique_ptr<Machine> mmse_machine(const kern::MmseLayout& lay, u64 seed) {
  auto m = std::make_unique<Machine>(lay.cluster, TimingConfig{}, lay.num_cores);
  m->load_program(kern::build_mmse_program(lay));
  Rng rng(seed);
  phy::Channel ch(phy::ChannelType::kRayleigh, lay.nrx, lay.ntx);
  phy::QamModulator qam(16);
  const sim::Batch batch = sim::generate_batch(ch, qam, lay.ntx, lay.num_cores, 12.0, rng);
  for (u32 c = 0; c < lay.num_cores; ++c)
    sim::stage_problem(m->memory(), lay, c, 0, batch.problems[c]);
  return m;
}

kern::MmseLayout mmse_layout(u32 num_cores) {
  kern::MmseLayout lay;
  lay.prec = kern::Precision::k16CDotp;
  lay.problems_per_core = 1;
  lay.num_cores = num_cores;
  lay.cluster = tera::TeraPoolConfig::tiny();
  lay.validate();
  return lay;
}

/// Detections, exit state and every per-hart counter agree exactly.
void expect_mmse_identical(const kern::MmseLayout& lay, const Machine& a,
                           const RunResult& ra, const Machine& b, const RunResult& rb) {
  ASSERT_TRUE(ra.exited && rb.exited);
  EXPECT_EQ(ra.exit_code, rb.exit_code);
  EXPECT_EQ(ra.instructions, rb.instructions);
  for (u32 c = 0; c < lay.num_cores; ++c)
    EXPECT_EQ(sim::read_xhat(a.memory(), lay, c, 0), sim::read_xhat(b.memory(), lay, c, 0))
        << "core " << c;
  expect_harts_identical(a, b);
  EXPECT_EQ(a.estimated_cycles(), b.estimated_cycles());
}

// The superblock fast path (translation.h) must be bit- and cycle-identical
// to the per-instruction reference path. Setting a (no-op) trace hook forces
// the reference path, which performs one translation-cache lookup per
// instruction and ignores the precomputed run lengths entirely, so this
// exercises the superblock boundary computation end to end on a real
// barrier-synchronized MMSE workload.
TEST(IssMmse, SuperblockFastPathMatchesPerInstructionReference) {
  const kern::MmseLayout lay = mmse_layout(8);
  auto fast = mmse_machine(lay, 99);
  const auto rf = fast->run();
  auto ref = mmse_machine(lay, 99);
  ref->set_trace([](u32, u32, const rv::Decoded&) {});
  const auto rr = ref->run();
  expect_mmse_identical(lay, *fast, rf, *ref, rr);
}

// The SPMD convergence-batch dispatch (machine.h) must be bit- and
// cycle-identical to the serial superblock path on the real barrier-
// synchronized MMSE workload - registers, detections, cycles, and stall
// accounting (the serial path is the oracle; the traced reference path is
// its oracle in turn, covered above).
TEST(IssMmse, BatchedDispatchMatchesSerialOnMmseWorkload) {
  const kern::MmseLayout lay = mmse_layout(8);
  auto batched = mmse_machine(lay, 99);
  ASSERT_TRUE(batched->batching());  // default on
  const auto rb = batched->run();
  auto serial = mmse_machine(lay, 99);
  serial->set_batching(false);
  const auto rs = serial->run();
  expect_mmse_identical(lay, *batched, rb, *serial, rs);
  // Most instructions took the lockstep path on this SPMD workload.
  EXPECT_GT(batched->batch_stats().lockstep_fraction(), 0.5);
  EXPECT_EQ(serial->batch_stats().batches, 0u);
}

}  // namespace
}  // namespace tsim::iss
