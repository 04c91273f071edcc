// Tests for the million-process scale path: the RunnableSet the World's
// O(1) scheduler queries are built on, lazy coroutine-frame spawning, the
// epoch fix for RandomScheduler stickiness, victim-keyed crashes armed with
// World::schedule_crash, and the scenario suite (Zipf writers, bursty
// arrivals, crash/recovery churn, record/replay).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "obs/trace.hpp"
#include "sim/runnable_set.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram::sim {
namespace {

// ------------------------------------------------------------ RunnableSet --

TEST(RunnableSet, AddRemoveContainsSize) {
  RunnableSet s(100);
  EXPECT_TRUE(s.empty());
  s.add(3);
  s.add(97);
  s.add(64);
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(4));
  s.remove(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.size(), 2);
  s.add(64);
  EXPECT_TRUE(s.contains(64));
}

TEST(RunnableSet, NextAtOrAfterMatchesLinearScan) {
  // Pseudo-random membership over a size that spans several leaf words and
  // one upper level; every query must agree with the brute-force scan.
  const int n = 1000;
  RunnableSet s(n);
  std::vector<bool> in(static_cast<std::size_t>(n), false);
  Rng rng(7);
  for (int round = 0; round < 4000; ++round) {
    const int pid = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    if (in[static_cast<std::size_t>(pid)]) {
      s.remove(pid);
    } else {
      s.add(pid);
    }
    in[static_cast<std::size_t>(pid)] = !in[static_cast<std::size_t>(pid)];

    const int q = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
    int expect = -1;
    for (int p = q; p < n; ++p) {
      if (in[static_cast<std::size_t>(p)]) {
        expect = p;
        break;
      }
    }
    ASSERT_EQ(s.next_at_or_after(q), expect) << "query " << q;
  }
}

TEST(RunnableSet, NextAtOrAfterCrossesWordAndLevelBoundaries) {
  // 64·64 = 4096 pids per level-1 word: members straddling those boundaries
  // exercise the climb-and-descend path.
  RunnableSet s(100'000);
  for (int pid : {0, 63, 64, 4095, 4096, 70'000, 99'999}) s.add(pid);
  EXPECT_EQ(s.next_at_or_after(0), 0);
  EXPECT_EQ(s.next_at_or_after(1), 63);
  EXPECT_EQ(s.next_at_or_after(64), 64);
  EXPECT_EQ(s.next_at_or_after(65), 4095);
  EXPECT_EQ(s.next_at_or_after(4096), 4096);
  EXPECT_EQ(s.next_at_or_after(4097), 70'000);
  EXPECT_EQ(s.next_at_or_after(70'001), 99'999);
  EXPECT_EQ(s.next_at_or_after(100'000), -1);
  s.remove(99'999);
  EXPECT_EQ(s.next_at_or_after(70'001), -1);
}

TEST(RunnableSet, DenseIndexEnumeratesExactlyTheMembers) {
  RunnableSet s(256);
  std::set<int> want;
  for (int pid = 0; pid < 256; pid += 3) {
    s.add(pid);
    want.insert(pid);
  }
  s.remove(99);
  want.erase(99);
  std::set<int> got;
  for (int i = 0; i < s.size(); ++i) got.insert(s.at(i));
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------------- ZipfSampler --

TEST(ZipfSampler, SamplesStayInRangeAndSkewTowardLowRanks) {
  const int n = 64;
  ZipfSampler zipf(n, 1.5);
  Rng rng(11);
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  const int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    const int k = zipf.sample(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, n);
    ++hits[static_cast<std::size_t>(k)];
  }
  // Rank 0 dominates and the head holds most of the mass under s = 1.5.
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[0], kDraws / 3);
  int head = 0;
  for (int k = 0; k < 8; ++k) head += hits[static_cast<std::size_t>(k)];
  EXPECT_GT(head, (kDraws * 8) / 10);
}

TEST(ZipfSampler, ZeroSkewIsRoughlyUniform) {
  const int n = 16;
  ZipfSampler zipf(n, 0.0);
  Rng rng(13);
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  const int kDraws = 64'000;
  for (int i = 0; i < kDraws; ++i) ++hits[static_cast<std::size_t>(zipf.sample(rng))];
  for (int k = 0; k < n; ++k) {
    EXPECT_GT(hits[static_cast<std::size_t>(k)], kDraws / n / 2) << k;
    EXPECT_LT(hits[static_cast<std::size_t>(k)], kDraws / n * 2) << k;
  }
}

// -------------------------------------------------------------- lazy spawn --

World::Options lazy_world() {
  World::Options o;
  o.lazy_spawn = true;
  return o;
}

TEST(LazySpawn, FrameMaterializesAtFirstGrantNotAtSpawn) {
  World w(1, lazy_world());
  auto& reg = w.make<int>(0);
  bool body_entered = false;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    body_entered = true;
    co_await ctx.write(reg, 1);
  });
  // Spawned and runnable, but the body's local prefix has not run.
  EXPECT_TRUE(w.runnable(0));
  EXPECT_FALSE(body_entered);
  EXPECT_EQ(w.counts(0).total(), 0u);
  // The materializing grant runs the prefix AND performs the first access.
  w.step(0);
  EXPECT_TRUE(body_entered);
  EXPECT_EQ(w.counts(0).writes, 1u);
  EXPECT_EQ(reg.peek(), 1);
  EXPECT_TRUE(w.done(0));
}

TEST(LazySpawn, ZeroAccessProgramCompletesOnItsFirstGrant) {
  World w(1, lazy_world());
  int ran = 0;
  w.spawn(0, [&](Context) -> ProcessTask {
    ++ran;
    co_return;
  });
  EXPECT_TRUE(w.runnable(0));
  EXPECT_FALSE(w.done(0));
  // The grant materializes, runs to completion, performs zero accesses.
  EXPECT_FALSE(w.step(0));
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(w.done(0));
  EXPECT_EQ(w.counts(0).total(), 0u);
  EXPECT_EQ(w.global_step(), 0u);
}

TEST(LazySpawn, RunDrivesPendingProcessesToCompletion) {
  const int n = 32;
  World w(n, lazy_world());
  auto& reg = w.make<int>(0, kAnyWriter);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&reg, pid](Context ctx) -> ProcessTask {
      co_await ctx.write(reg, pid);
      (void)co_await ctx.read(reg);
    });
  }
  RoundRobinScheduler rr;
  const RunResult r = w.run(rr);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.steps_taken, static_cast<std::uint64_t>(2 * n));
  EXPECT_EQ(w.total_counts().total(), static_cast<std::uint64_t>(2 * n));
}

// -------------------------------------------------------- revive & epochs --

TEST(World, ReviveRestartsACrashedPidAsANewIncarnation) {
  World w(2);
  auto& reg = w.make<int>(0, kAnyWriter);
  const auto writer = [&](int val) {
    return [&reg, val](Context ctx) -> ProcessTask {
      co_await ctx.write(reg, val);
      co_await ctx.write(reg, val);
    };
  };
  w.spawn(0, writer(1));
  const std::uint32_t first_epoch = w.spawn_epoch(0);
  w.step(0);
  w.crash(0);
  EXPECT_TRUE(w.crashed(0));
  w.revive(0, writer(7));
  EXPECT_TRUE(w.runnable(0));
  EXPECT_GT(w.spawn_epoch(0), first_epoch);
  w.step(0);
  w.step(0);
  EXPECT_TRUE(w.done(0));
  // Counts accumulate across incarnations: 1 pre-crash + 2 post-revive.
  EXPECT_EQ(w.counts(0).writes, 3u);
  EXPECT_EQ(reg.peek(), 7);
}

TEST(RandomScheduler, StickinessDoesNotFollowAPidAcrossIncarnations) {
  // Regression: with stickiness 1.0 the scheduler re-picks last_ as long as
  // it is runnable. Before the epoch check it would keep doing so across a
  // crash+revive — the NEW incarnation silently inherited the sticky run,
  // and with continuous churn the other pid was never scheduled again. With
  // the fix every revive forces a fresh uniform draw, so over many cycles
  // both pids must receive grants.
  World w(2);
  auto& reg = w.make<int>(0, kAnyWriter);
  const auto busy = [&reg](Context ctx) -> ProcessTask {
    for (int i = 0; i < 1'000'000; ++i) co_await ctx.write(reg, i);
  };
  w.spawn(0, busy);
  w.spawn(1, busy);
  RandomScheduler rnd(42, /*stickiness=*/1.0);
  std::set<int> granted;
  for (int cycle = 0; cycle < 64; ++cycle) {
    const int pid = rnd.pick(w);
    ASSERT_GE(pid, 0);
    granted.insert(pid);
    w.step(pid);
    w.crash(pid);
    w.revive(pid, busy);
  }
  EXPECT_EQ(granted.size(), 2u) << "sticky pick survived a re-incarnation";
}

TEST(RandomScheduler, IsDeterministicPerSeedAtScale) {
  const auto run_once = [](std::uint64_t seed) {
    const int n = 512;
    World w(n, lazy_world());
    auto& reg = w.make<std::uint64_t>(0, kAnyWriter);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&reg, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 8; ++i) {
          co_await ctx.write(reg, static_cast<std::uint64_t>(pid));
        }
      });
    }
    RandomScheduler rnd(seed, 0.25);
    RecordingScheduler rec(rnd);
    EXPECT_TRUE(w.run(rec).all_done);
    return rec.picks();
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

// ---------------------------------------------------------- ScheduleCrash --

ProcessTask spin_writer(Context ctx, Register<int>& reg, int k) {
  for (int i = 0; i < k; ++i) co_await ctx.write(reg, i);
}

TEST(ScheduleCrash, VictimStopsAfterExactlyItsQuota) {
  const int n = 8;
  World w(n);
  auto& reg = w.make<int>(0, kAnyWriter);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&](Context ctx) { return spin_writer(ctx, reg, 20); });
  }
  w.schedule_crash(3, 7);
  w.schedule_crash(5, 11);
  RoundRobinScheduler rr;
  w.run(rr);
  // Victims performed exactly their quota before the injected crash; no
  // grant may slip through past it.
  EXPECT_TRUE(w.crashed(3));
  EXPECT_EQ(w.counts(3).total(), 7u);
  EXPECT_TRUE(w.crashed(5));
  EXPECT_EQ(w.counts(5).total(), 11u);
  for (int pid : {0, 1, 2, 4, 6, 7}) {
    EXPECT_TRUE(w.done(pid)) << pid;
    EXPECT_EQ(w.counts(pid).total(), 20u) << pid;
  }
}

TEST(ScheduleCrash, ArmsVictimsThatSpawnMidRun) {
  World w(2);
  auto& reg = w.make<int>(0, kAnyWriter);
  w.spawn(0, [&](Context ctx) { return spin_writer(ctx, reg, 10); });
  w.schedule_crash(1, 4);  // victim 1 is not spawned yet
  RoundRobinScheduler rr;
  w.run_steps(rr, 5);
  // Victim 1 spawns only now; its threshold must still hold it to 4.
  w.spawn(1, [&](Context ctx) { return spin_writer(ctx, reg, 10); });
  w.run(rr);
  EXPECT_TRUE(w.done(0));
  EXPECT_TRUE(w.crashed(1));
  EXPECT_EQ(w.counts(1).total(), 4u);
}

TEST(ScheduleCrash, FiresOnStepsTakenOutsideRun) {
  World w(2);
  auto& reg = w.make<int>(0, kAnyWriter);
  w.spawn(0, [&](Context ctx) { return spin_writer(ctx, reg, 10); });
  w.spawn(1, [&](Context ctx) { return spin_writer(ctx, reg, 10); });
  w.schedule_crash(1, 3);
  RoundRobinScheduler rr;
  w.run_steps(rr, 2);  // grants pid 0 then pid 1
  // Push the victim to its quota with World::step, outside any run(); the
  // crash fires there, before the victim can be granted a 4th access.
  w.step(1);
  w.step(1);
  EXPECT_TRUE(w.crashed(1));
  w.run(rr);
  EXPECT_TRUE(w.done(0));
  EXPECT_TRUE(w.crashed(1));
  EXPECT_EQ(w.counts(1).total(), 3u);
}

// ---------------------------------------------------------------- scenario --

TEST(Scenario, UpFrontArrivalsRunToCompletion) {
  ScenarioOptions opts;
  opts.num_procs = 200;
  opts.num_registers = 32;
  opts.ops_per_process = 8;
  opts.total_steps = 100'000;
  World w(opts.num_procs, scenario_world_options(opts));
  RoundRobinScheduler rr;
  const ScenarioResult r = run_scenario(w, rr, opts);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.arrived, 200u);
  EXPECT_EQ(r.completed, 200u);
  EXPECT_EQ(r.crashes, 0u);
  // Every op is exactly one write and every grant is exactly one access.
  EXPECT_EQ(r.accesses.writes, 200u * 8u);
  EXPECT_EQ(r.accesses.reads, 0u);
  EXPECT_EQ(r.grants, r.accesses.total());
}

TEST(Scenario, BurstyArrivalsAllEventuallyArriveAndFinish) {
  ScenarioOptions opts;
  opts.num_procs = 120;
  opts.num_registers = 16;
  opts.ops_per_process = 4;
  opts.total_steps = 50'000;
  opts.burst_every = 64;
  opts.burst_size = 25;  // deliberately not a divisor of num_procs
  World w(opts.num_procs, scenario_world_options(opts));
  RandomScheduler rnd(3);
  const ScenarioResult r = run_scenario(w, rnd, opts);
  EXPECT_EQ(r.arrived, 120u);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, 120u);
  EXPECT_EQ(r.accesses.writes, 120u * 4u);
}

TEST(Scenario, ChurnCrashesAndRevivesKeepTheRunLive) {
  ScenarioOptions opts;
  opts.num_procs = 100;
  opts.num_registers = 16;
  opts.ops_per_process = 32;
  opts.total_steps = 20'000;
  opts.churn_every = 500;
  opts.churn_crashes = 3;
  opts.recover = true;
  World w(opts.num_procs, scenario_world_options(opts));
  RandomScheduler rnd(17);
  const ScenarioResult r = run_scenario(w, rnd, opts);
  EXPECT_GT(r.crashes, 0u);
  EXPECT_EQ(r.revived, r.crashes);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.completed, 100u);
}

TEST(Scenario, ChurnWithoutRecoveryLeavesVictimsCrashed) {
  ScenarioOptions opts;
  opts.num_procs = 100;
  opts.num_registers = 16;
  opts.ops_per_process = 64;
  opts.total_steps = 30'000;
  opts.churn_every = 200;
  opts.churn_crashes = 2;
  opts.recover = false;
  World w(opts.num_procs, scenario_world_options(opts));
  RoundRobinScheduler rr;
  const ScenarioResult r = run_scenario(w, rr, opts);
  EXPECT_GT(r.crashes, 0u);
  EXPECT_EQ(r.revived, 0u);
  EXPECT_TRUE(r.all_done);  // crashed pids are not runnable
  std::uint64_t crashed = 0;
  for (int pid = 0; pid < opts.num_procs; ++pid) {
    if (w.crashed(pid)) ++crashed;
  }
  EXPECT_EQ(crashed, r.crashes);
  EXPECT_EQ(r.completed + crashed, 100u);
}

TEST(Scenario, ZipfSkewConcentratesWritesOnHotRegisters) {
  ScenarioOptions opts;
  opts.num_procs = 256;
  opts.num_registers = 64;
  opts.ops_per_process = 16;
  opts.zipf_s = 1.5;
  opts.total_steps = 100'000;
  // Per pid: spawn, 16 × (op begin, write, op end), done.
  obs::Tracer tracer(opts.num_procs, 64);
  World::Options wopts = scenario_world_options(opts);
  wopts.tracer = &tracer;
  World w(opts.num_procs, wopts);
  RoundRobinScheduler rr;
  const ScenarioResult r = run_scenario(w, rr, opts);
  ASSERT_TRUE(r.all_done);
  ASSERT_EQ(tracer.dropped(), 0u);
  std::map<int, std::uint64_t> per_reg;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.kind != obs::EventKind::kRead && ev.kind != obs::EventKind::kWrite &&
        ev.kind != obs::EventKind::kCas) {
      continue;
    }
    ASSERT_EQ(ev.kind, obs::EventKind::kWrite);
    ++per_reg[ev.object];
  }
  // Register ids follow creation order, so id 0 is Zipf rank 0: the single
  // hottest register, holding well over the uniform share (1/64) of writes.
  const std::uint64_t total = 256u * 16u;
  EXPECT_GT(per_reg[0], total / 8);
  std::uint64_t head = 0;
  for (int id = 0; id < 8; ++id) head += per_reg[id];
  EXPECT_GT(head, (total * 7) / 10);
}

TEST(Scenario, RecordedRunReplaysStepIdentically) {
  ScenarioOptions opts;
  opts.num_procs = 80;
  opts.num_registers = 16;
  opts.ops_per_process = 8;
  opts.total_steps = 40'000;
  opts.burst_every = 100;
  opts.burst_size = 20;
  opts.churn_every = 300;
  opts.churn_crashes = 2;
  opts.recover = true;

  std::vector<int> picks;
  const ScenarioResult live =
      run_scenario_recorded(opts, /*sched_seed=*/9, /*stickiness=*/0.3, &picks);
  EXPECT_TRUE(live.all_done);
  EXPECT_EQ(static_cast<std::uint64_t>(picks.size()), live.grants);

  // FixedScheduler kFail aborts on any divergence, so surviving the replay
  // plus same_execution() pins the execution shape end to end.
  const ScenarioResult replayed = replay_scenario(opts, picks);
  EXPECT_TRUE(replayed.same_execution(live));
}

TEST(Scenario, SameSeedSameSchedulerIsReproducible) {
  ScenarioOptions opts;
  opts.num_procs = 64;
  opts.num_registers = 8;
  opts.ops_per_process = 8;
  opts.total_steps = 20'000;
  opts.churn_every = 128;
  opts.churn_crashes = 1;
  const ScenarioResult a = run_scenario_recorded(opts, 21, 0.0, nullptr);
  const ScenarioResult b = run_scenario_recorded(opts, 21, 0.0, nullptr);
  EXPECT_TRUE(a.same_execution(b));
}

}  // namespace
}  // namespace apram::sim
