// Cycle-accurate TeraPool cluster model - this repo's stand-in for RTL
// simulation (see EXPERIMENTS.md, "Substitutions").
//
// Models, per cycle:
//  - Snitch in-order single-issue pipeline with a register scoreboard
//    (true RAW stalls, classified raw vs lsu by the blocking producer),
//  - per-tile shared I$ (direct-mapped, single refill port to L2),
//  - unpipelined divide/sqrt units (structural stall-acc),
//  - LSU with bounded outstanding requests,
//  - word-interleaved TCDM banks with single-grant-per-cycle arbitration
//    and NUMA request/response latency by hierarchy distance,
//  - AMOs holding their bank for the read-modify-write,
//  - WFI sleep / wake-register semantics for barriers.
//
// Shares instruction semantics (rv::execute) and the predecoded program
// (iss::TranslationCache) with the fast ISS, so functional behaviour is
// identical by construction; only time differs.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <vector>

#include "iss/translation.h"
#include "rv/hart_state.h"
#include "tera/memory.h"
#include "uarch/stats.h"

namespace tsim::uarch {

struct UarchConfig {
  u32 l2_latency = 25;          // I$ refill / L2 data access
  u32 wake_latency = 2;         // wake store -> sleeper resumes
  u32 branch_penalty = 2;       // taken-branch fetch bubbles
  u32 lsu_outstanding = 4;      // maximum in-flight memory requests per core
  u32 amo_bank_hold = 2;        // cycles an AMO occupies its bank
  u64 max_cycles = 0;           // safety stop; 0 = unlimited
};

struct UarchRunResult {
  bool exited = false;
  u32 exit_code = 0;
  bool deadlock = false;
  u64 cycles = 0;         // global cycle at completion
  u64 instructions = 0;
};

class ClusterSim {
 public:
  ClusterSim(const tera::TeraPoolConfig& cluster, UarchConfig cfg = {},
             u32 active_cores = 0);

  tera::ClusterMemory& memory() { return *mem_; }

  void load_program(const rvasm::Program& prog);
  void reset();

  /// Runs to completion (exit store / all halted) and returns the result.
  UarchRunResult run();

  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  const CoreStats& core_stats(u32 i) const { return cores_[i].stats; }
  CoreStats aggregate_stats() const;
  u64 bank_conflict_cycles() const;

  /// Architectural state access for tests.
  const rv::HartState& hart_state(u32 i) const { return cores_[i].state; }

 private:
  static constexpr u64 kAsleep = std::numeric_limits<u64>::max();
  static constexpr u32 kWheelBits = 14;
  static constexpr u64 kWheelSize = 1ull << kWheelBits;  // 16384-cycle horizon

  struct Core {
    rv::HartState state;
    std::array<u64, 32> ready{};       // scoreboard: result landing time
    std::array<bool, 32> from_mem{};   // producer was a memory op
    u64 next_time = 0;                 // next cycle this core can act
    bool scheduled = false;
    u64 sleep_since = 0;
    bool wake_pending = false;
    u64 div_busy_until = 0;
    std::vector<u64> lsu_slots;        // completion times of in-flight ops
    CoreStats stats;
  };

  struct Tile {
    std::vector<u32> icache_tags;
    std::vector<bool> icache_valid;
    u64 refill_port_free = 0;
  };

  void schedule(u32 core, u64 time);
  void issue(u32 core);
  /// I$ lookup; returns the cycle at which the fetch completes (== now on hit).
  u64 fetch_done(u32 core, u32 pc);
  void apply_wakes(u64 now);
  void on_exit(u32 code);

  tera::TeraPoolConfig cluster_;
  UarchConfig cfg_;
  const rv::InstrDef* isa_defs_ = rv::isa_table().data();
  std::unique_ptr<tera::ClusterMemory> mem_;
  iss::TranslationCache tcache_;
  u32 entry_pc_ = 0;

  std::vector<Core> cores_;
  std::vector<Tile> tiles_;
  std::vector<u64> bank_free_;
  std::vector<BankStats> bank_stats_;
  u64 l2_port_free_ = 0;

  std::array<std::vector<u32>, kWheelSize> wheel_;
  u64 now_ = 0;
  u32 live_cores_ = 0;

  bool stop_ = false;
  bool exited_ = false;
  u32 exit_code_ = 0;
  std::vector<u32> pending_wakes_;
};

}  // namespace tsim::uarch
