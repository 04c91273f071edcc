// universal2 under fault injection (stress tier; nightly in CI).
//
// The normalized fast/slow-path simulator's whole reason to exist is that
// announced operations survive their owner: a process that crashes or
// stalls after publishing its state record is finished by helpers, and a
// dead announce parked at the help-queue head must not wedge anyone else
// (WaitFreeSim's self-help step). These campaigns drive exactly those
// cases:
//
//   * seeded certify_wait_freedom campaigns over the counter and the
//     sorted-list set, with crash/stall/burst plans from
//     fault_seeds::kU2CampaignSeeds — every non-crashed process must
//     complete, and the object state must be exactly consistent with the
//     applied-evidence (no lost, partial, or doubled operations)
//   * a deterministic crash sweep over every access offset of a forced
//     slow-path insert (mid-bakery-scan, mid-announce, mid-self-help, …)
//   * an rt stall test parking a slow-path thread mid-operation while a
//     third process keeps operating through it (queue-head stall)
//
// Artifacts land in $APRAM_FAULT_ARTIFACT_DIR when set (the CI job uploads
// that directory on failure) and in the gtest temp dir otherwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "fault/certifier.hpp"
#include "fault/rt_inject.hpp"
#include "fault_seeds.hpp"
#include "rt/thread_harness.hpp"
#include "sim/world.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/linked_list.hpp"
#include "universal2/rt.hpp"

namespace apram::universal2 {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;

using SimCounter = Counter2<api::SimBackend>;
using SimSet = SortedSet<api::SimBackend>;

std::string artifact_dir(const std::string& subdir) {
  const char* env = std::getenv("APRAM_FAULT_ARTIFACT_DIR");
  const std::string base =
      env != nullptr ? std::string(env) : ::testing::TempDir() + "apram-fault";
  return base + "/" + subdir;
}

// ---------------------------------------------------------------------------
// Counter campaign. Three mutators (pid p: two incs of p+1) and a measured
// reader (pid 3, never crashed). The judge re-derives consistency from the
// applied evidence (CounterRep::applied_opseq: the applied[p] registers, the
// cell's tag and each owner's fast-path record): the value must equal
// exactly the sum of the applied
// evidence — an operation that took effect without being recorded, was
// recorded without taking effect, or took effect twice all break the
// equation — and the reader's two reads plus the final value must be
// monotone (inc-only workload).
// ---------------------------------------------------------------------------

struct CounterCampaignExec final : Execution {
  explicit CounterCampaignExec(SimCounter::Config cfg) : w(4), c(w, 4, cfg) {
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await c.inc(ctx, pid + 1);
        co_await c.inc(ctx, pid + 1);
      });
    }
    w.spawn(3, [this](Context ctx) -> ProcessTask {
      reads[0] = co_await c.read(ctx);
      reads[1] = co_await c.read(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimCounter c;
  std::int64_t reads[2] = {-1, -1};
};

fault::Judge counter_judge() {
  return [](Execution& e) -> std::string {
    auto& x = static_cast<CounterCampaignExec&>(e);
    const auto cell = x.c.rep().cell_register().peek();
    std::int64_t expected = 0;
    for (int p = 0; p < 3; ++p) {
      const std::uint64_t applied = x.c.rep().applied_opseq(p);
      if (applied > 2) return "pid " + std::to_string(p) + " over-applied";
      expected += static_cast<std::int64_t>(applied) * (p + 1);
    }
    if (cell.value != expected) {
      return "value " + std::to_string(cell.value) +
             " != applied evidence " + std::to_string(expected);
    }
    // The reader never crashes: both reads completed, inc-only => monotone.
    if (x.reads[0] < 0 || x.reads[1] < x.reads[0] ||
        cell.value < x.reads[1]) {
      return "non-monotone reads " + std::to_string(x.reads[0]) + "," +
             std::to_string(x.reads[1]) + " final " +
             std::to_string(cell.value);
    }
    return "";
  };
}

void run_counter_campaign(SimCounter::Config cfg, const std::string& subdir) {
  std::uint64_t total_schedules = 0;
  std::uint64_t total_faults = 0;
  for (const std::uint64_t base : fault_seeds::kU2CampaignSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 150;
    opts.base_seed = base;
    opts.plan.max_crashes = 2;
    opts.plan.never_crash = {3};  // the reader is the measured process
    opts.artifact_dir = artifact_dir(subdir);
    const fault::CampaignResult result = fault::certify_wait_freedom(
        [cfg] { return std::make_unique<CounterCampaignExec>(cfg); },
        counter_judge(), opts);
    EXPECT_TRUE(result.certified())
        << "base_seed=" << base << ": "
        << (result.violations.empty() ? "no schedules ran"
                                      : result.violations[0].what);
    total_schedules += result.schedules_run;
    total_faults += result.crashes_fired + result.stall_deflections +
                    result.burst_grants;
  }
  EXPECT_GE(total_schedules, 450u);
  EXPECT_GT(total_faults, 0u);  // an adversary that never bites proves little
}

TEST(U2FaultCampaign, CounterFastPathSurvivesCrashesAndStalls) {
  SimCounter::Config cfg;  // defaults: fast path + periodic helping
  cfg.help_period = 2;
  run_counter_campaign(cfg, "u2-counter-fast");
}

TEST(U2FaultCampaign, CounterForcedSlowPathSurvivesCrashesAndStalls) {
  SimCounter::Config cfg;
  cfg.max_fast_attempts = 0;  // every mutation announces; helpers race
  cfg.help_period = 1;
  run_counter_campaign(cfg, "u2-counter-slow");
}

// Fast-path installs (no evidence kept) and announced installs (evidence
// kept) interleave on the one cell: a fast-path op that loses its single
// CAS announces, and every op helps first.
TEST(U2FaultCampaign, CounterMixedPathsSurviveCrashesAndStalls) {
  SimCounter::Config cfg;
  cfg.max_fast_attempts = 1;
  cfg.help_period = 1;
  run_counter_campaign(cfg, "u2-counter-mixed");
}

// ---------------------------------------------------------------------------
// Sorted-list campaign. Each worker inserts a private key, then fights over
// a shared key. Private keys are never removed, so: acked => present, and
// present => the applied evidence exists (the insert's node is reachable
// and unmarked). The measured process (pid 3) additionally checks its own
// acks in-line.
// ---------------------------------------------------------------------------

struct SetCampaignExec final : Execution {
  explicit SetCampaignExec(SimSet::Config cfg)
      : w(4), s(w, 4, /*capacity_per_proc=*/64, cfg) {
    for (int pid = 0; pid < 4; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        acked[pid] = co_await s.insert(ctx, 100 + pid);
        shared_acks[pid] += co_await s.insert(ctx, 7);
        shared_acks[pid] -= co_await s.remove(ctx, 7);
        (void)co_await s.contains(ctx, 7);
      });
    }
  }
  World& world() override { return w; }
  World w;
  SimSet s;
  std::int64_t acked[4] = {0, 0, 0, 0};
  std::int64_t shared_acks[4] = {0, 0, 0, 0};
};

fault::Judge set_judge() {
  return [](Execution& e) -> std::string {
    auto& x = static_cast<SetCampaignExec&>(e);
    std::vector<std::int64_t> keys;
    x.w.spawn(3, [&x, &keys](Context ctx) -> ProcessTask {
      keys = co_await x.s.rep().snapshot_keys(ctx);
    });
    x.w.run_solo(3);
    if (!std::is_sorted(keys.begin(), keys.end())) return "keys not sorted";
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return "duplicate key";
    }
    for (int p = 0; p < 4; ++p) {
      const bool present =
          std::find(keys.begin(), keys.end(), 100 + p) != keys.end();
      // An acked private insert can never be lost (nobody removes it).
      if (x.acked[p] == 1 && !present) {
        return "acked insert of key " + std::to_string(100 + p) + " lost";
      }
    }
    // pid 3 never crashes: its private insert must have been acked.
    if (x.acked[3] != 1) return "survivor's insert not acknowledged";
    return "";
  };
}

TEST(U2FaultCampaign, SortedListSurvivesCrashesAndStalls) {
  for (const bool forced : {false, true}) {
    SimSet::Config cfg;
    if (forced) {
      cfg.max_fast_attempts = 0;
      cfg.help_period = 1;
    }
    std::uint64_t total_schedules = 0;
    for (const std::uint64_t base : fault_seeds::kU2CampaignSeeds) {
      fault::CampaignOptions opts;
      opts.schedules = 100;
      opts.base_seed = base;
      opts.plan.max_crashes = 2;
      opts.plan.never_crash = {3};
      opts.artifact_dir =
          artifact_dir(forced ? "u2-set-slow" : "u2-set-fast");
      const fault::CampaignResult result = fault::certify_wait_freedom(
          [cfg] { return std::make_unique<SetCampaignExec>(cfg); },
          set_judge(), opts);
      EXPECT_TRUE(result.certified())
          << "forced=" << forced << " base_seed=" << base << ": "
          << (result.violations.empty() ? "no schedules ran"
                                        : result.violations[0].what);
      total_schedules += result.schedules_run;
    }
    EXPECT_GE(total_schedules, 300u);
  }
}

// ---------------------------------------------------------------------------
// Deterministic crash sweep: kill a forced-slow-path inserter at every
// access offset — before the record install, mid-bakery-scan, right after
// the announce CAS, mid-self-help — then let a survivor run. The insert is
// all-or-nothing and the survivor is never blocked by the corpse at the
// queue head.
// ---------------------------------------------------------------------------

TEST(U2Fault, InserterCrashSweepIsAllOrNothing) {
  const int n = 3;
  for (std::uint64_t at = 0; at < 40; ++at) {
    World w(n, {.crashes = {{.pid = 1, .at_access = at}}});
    SimSet::Config cfg;
    cfg.max_fast_attempts = 0;
    cfg.help_period = 1;
    SimSet s(w, n, /*capacity_per_proc=*/16, cfg);
    w.spawn(1, [&](Context ctx) -> ProcessTask {
      (void)co_await s.insert(ctx, 42);
    });
    w.run_solo(1);  // crashes somewhere inside (or completes at large `at`)

    // The survivor operates through whatever pid 1 left behind (possibly a
    // dead announce at the queue head) and must finish.
    std::int64_t own = -1;
    std::int64_t seen42 = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      own = co_await s.insert(ctx, 10);
      seen42 = co_await s.contains(ctx, 42);
    });
    w.run_solo(0);
    EXPECT_EQ(own, 1) << "at=" << at;

    std::vector<std::int64_t> keys;
    w.spawn(2, [&](Context ctx) -> ProcessTask {
      keys = co_await s.rep().snapshot_keys(ctx);
    });
    w.run_solo(2);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << "at=" << at;
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "at=" << at;
    const bool present =
        std::find(keys.begin(), keys.end(), 42) != keys.end();
    EXPECT_EQ(seen42, present ? 1 : 0) << "at=" << at;
    EXPECT_TRUE(std::find(keys.begin(), keys.end(), 10) != keys.end())
        << "at=" << at;
    // All-or-nothing: 42 appears at most once (checked by the duplicate
    // scan above) and only with its full insert applied — if the survivor's
    // help completed the crashed insert, contains() agrees.
  }
}

// ---------------------------------------------------------------------------
// Queue-head stall on real threads: park a forced-slow-path thread
// mid-operation (its announce may sit at the queue head) and drive another
// process through it from the main thread, using a spare pid slot.
// ---------------------------------------------------------------------------

TEST(U2FaultRt, StalledSlowPathThreadDoesNotBlockOthers) {
  const int n = 4;  // threads 0..2 run; pid 3 is the while-stalled driver
  const int kOps = 40;
  for (const std::uint64_t stall_after : {3u, 7u, 11u, 19u}) {
    Counter2RT::Config cfg;
    cfg.max_fast_attempts = 0;
    cfg.help_period = 1;
    Counter2RT c(n, cfg);
    fault::RtInjector inj(fault::RtInjectOptions{});
    c.attach_injector(&inj);
    std::int64_t while_stalled_sum = 0;
    rt::run_with_stall(
        /*num_threads=*/3,
        [&](int pid) {
          for (int i = 0; i < kOps; ++i) {
            c.inc(pid, 1);
          }
        },
        inj, /*victim=*/1, stall_after,
        [&]() {
          // The victim is parked mid-slow-path; pid 3 must still finish.
          for (int i = 0; i < 5; ++i) {
            c.inc(3, 1);
          }
          while_stalled_sum = c.read(3);
          EXPECT_GE(while_stalled_sum, 5);
        });
    EXPECT_EQ(c.read(0), 3 * kOps + 5) << "stall_after=" << stall_after;
  }
}

}  // namespace
}  // namespace apram::universal2
