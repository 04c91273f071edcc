// Fault injection and wait-freedom certification (sim side).
//
// Covers: victim-keyed crash semantics (World::schedule_crash), strict and
// skipping replay divergence handling, fault plans (crashes armed on the
// World, stalls and bursts imposed by the Nemesis scheduler combinator), the
// campaign certifier with step-bound judges and its exact fault accounting,
// replay artifacts for violations, and exhaustive exploration of
// crash-during-Scan interleavings.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/certifier.hpp"
#include "fault/nemesis.hpp"
#include "obs/analyze.hpp"
#include "sim/explore.hpp"
#include "sim/replay.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;

// A process performing `k` writes of 1..k to its own register.
ProcessTask writer(Context ctx, sim::Register<int>& reg, int k) {
  for (int i = 1; i <= k; ++i) co_await ctx.write(reg, i);
}

// ---------------------------------------------------------------------------
// Victim-keyed crash semantics: {S, pid} == "pid performs exactly S accesses"
// ---------------------------------------------------------------------------

TEST(CrashSemantics, VictimPerformsExactlyItsQuota) {
  // Whatever the interleaving, a quota of 4 own accesses means exactly 4 —
  // the crash point must not drift with the other processes' steps.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(3);
    auto& r0 = w.make<int>(0, 0);
    auto& r1 = w.make<int>(0, 1);
    auto& r2 = w.make<int>(0, 2);
    w.spawn(0, [&](Context ctx) { return writer(ctx, r0, 10); });
    w.spawn(1, [&](Context ctx) { return writer(ctx, r1, 10); });
    w.spawn(2, [&](Context ctx) { return writer(ctx, r2, 10); });
    w.schedule_crash(0, 4);
    sim::RandomScheduler rnd(seed);
    EXPECT_TRUE(w.run(rnd).all_done);
    EXPECT_TRUE(w.crashed(0));
    EXPECT_EQ(w.counts(0).total(), 4u) << "seed=" << seed;
    EXPECT_EQ(r0.peek(), 4);  // last completed write
    EXPECT_EQ(r1.peek(), 10);
    EXPECT_EQ(r2.peek(), 10);
  }
}

TEST(CrashSemantics, WriterCrashesOneStepBeforeFinalWrite) {
  // The off-by-one this pins down: quota k-1 on a k-write program means the
  // final write is the one that never happens.
  const int k = 6;
  World w(2);
  auto& reg = w.make<int>(0, 0);
  auto& other = w.make<int>(0, 1);
  w.spawn(0, [&](Context ctx) { return writer(ctx, reg, k); });
  w.spawn(1, [&](Context ctx) { return writer(ctx, other, 3); });
  w.schedule_crash(0, static_cast<std::uint64_t>(k - 1));
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_TRUE(w.crashed(0));
  EXPECT_EQ(w.counts(0).writes, static_cast<std::uint64_t>(k - 1));
  EXPECT_EQ(reg.peek(), k - 1);  // the k-th write was lost to the crash
}

TEST(CrashSemantics, CompletionWins) {
  // A quota past the program's length never fires: the process finishes.
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return writer(ctx, reg, 5); });
  w.schedule_crash(0, 5);
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_FALSE(w.crashed(0));
  EXPECT_TRUE(w.done(0));
  EXPECT_EQ(reg.peek(), 5);
}

TEST(CrashSemantics, QuotaZeroPreventsAllAccesses) {
  World w(2);
  auto& reg = w.make<int>(0, 0);
  auto& other = w.make<int>(0, 1);
  w.spawn(0, [&](Context ctx) { return writer(ctx, reg, 5); });
  w.spawn(1, [&](Context ctx) { return writer(ctx, other, 5); });
  w.schedule_crash(0, 0);
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_TRUE(w.crashed(0));
  EXPECT_EQ(w.counts(0).total(), 0u);
  EXPECT_EQ(reg.peek(), 0);
}

TEST(CrashSemantics, ScheduleCrashOnWorldMatchesScheduler) {
  // A threshold armed on the World holds under any scheduler — including
  // explore/replay, which own theirs.
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return writer(ctx, reg, 9); });
  w.schedule_crash(0, 3);
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_TRUE(w.crashed(0));
  EXPECT_EQ(w.counts(0).total(), 3u);
  EXPECT_EQ(reg.peek(), 3);
}

TEST(CrashSemantics, ScheduleCrashFiresImmediatelyWhenThresholdMet) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return writer(ctx, reg, 9); });
  w.step(0);
  w.step(0);
  w.schedule_crash(0, 2);  // already at 2 accesses: fires on the spot
  EXPECT_TRUE(w.crashed(0));
  EXPECT_EQ(w.counts(0).total(), 2u);
}

// ---------------------------------------------------------------------------
// Replay divergence: kFail (strict, the default) vs kSkip
// ---------------------------------------------------------------------------

// Two processes, two writes each. Schedules that grant pid 0 a third step
// diverge while pid 1 is still runnable, so the scheduler is actually
// consulted about the bogus entry (a world where everything already
// finished would just end the run).
struct TwoByTwoExec final : Execution {
  TwoByTwoExec() : w(2) {
    r0 = &w.make<int>(0, 0);
    r1 = &w.make<int>(0, 1);
    w.spawn(0, [this](Context ctx) { return writer(ctx, *r0, 2); });
    w.spawn(1, [this](Context ctx) { return writer(ctx, *r1, 2); });
  }
  World& world() override { return w; }
  World w;
  sim::Register<int>* r0;
  sim::Register<int>* r1;
};

TEST(ReplayDivergenceDeathTest, StrictReplayAbortsOnDivergence) {
  // The third grant schedules a process that is already done: a schedule
  // that does not match its execution must fail loudly, not drift.
  EXPECT_DEATH(
      sim::replay([] { return std::make_unique<TwoByTwoExec>(); }, {0, 0, 0},
                  sim::FixedScheduler::Divergence::kFail),
      "diverged");
}

TEST(ReplayDivergence, LenientReplaySkipsDivergentEntries) {
  auto exec = sim::replay([] { return std::make_unique<TwoByTwoExec>(); },
                          {0, 0, 0}, sim::FixedScheduler::Divergence::kSkip);
  EXPECT_TRUE(exec->world().done(0));
  EXPECT_EQ(exec->world().counts(0).total(), 2u);
  EXPECT_EQ(exec->world().counts(1).total(), 0u);  // bogus entry skipped
}

TEST(ReplayDivergence, StrictReplayOfFaithfulScheduleSucceeds) {
  auto exec = sim::replay([] { return std::make_unique<TwoByTwoExec>(); },
                          {0, 1, 1, 0});  // strict is the default
  EXPECT_TRUE(exec->world().all_done());
  EXPECT_EQ(static_cast<TwoByTwoExec&>(*exec).r0->peek(), 2);
  EXPECT_EQ(static_cast<TwoByTwoExec&>(*exec).r1->peek(), 2);
}

TEST(FixedSchedulerDeathTest, StrictModeNamesTheDivergencePosition) {
  TwoByTwoExec exec;
  sim::FixedScheduler sched({0, 0, 0}, sim::FixedScheduler::Divergence::kFail);
  EXPECT_DEATH(exec.w.run(sched), "diverged at position 2");
}

// ---------------------------------------------------------------------------
// Fault plans: crashes armed on the World, stalls and bursts imposed by the
// Nemesis over any inner scheduler
// ---------------------------------------------------------------------------

struct ThreeWriterExec final : Execution {
  explicit ThreeWriterExec(int k = 10) : w(3) {
    for (int pid = 0; pid < 3; ++pid) {
      regs.push_back(&w.make<int>(0, pid));
    }
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [this, pid, k](Context ctx) {
        return writer(ctx, *regs[static_cast<std::size_t>(pid)], k);
      });
    }
  }
  World& world() override { return w; }
  World w;
  std::vector<sim::Register<int>*> regs;
};

TEST(Nemesis, SameSeedSamePlanSameSchedule) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    fault::FaultPlan plan = fault::random_plan(rng, 3, {});
    ThreeWriterExec exec;
    exec.w.apply_options({.crashes = plan.crashes});
    sim::RandomScheduler inner(seed * 77 + 1);
    fault::Nemesis nemesis(inner, plan);
    sim::RecordingScheduler rec(nemesis);
    exec.w.run_steps(rec, 10'000);
    return rec.picks();
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << "seed=" << seed;
  }
}

TEST(Nemesis, PlanCrashesFireVictimKeyed) {
  ThreeWriterExec exec;
  fault::FaultPlan plan;
  plan.crashes.push_back({1, 4});
  exec.w.apply_options({.crashes = plan.crashes});
  sim::RoundRobinScheduler inner;
  fault::Nemesis nemesis(inner, plan);
  EXPECT_TRUE(exec.w.run(nemesis).all_done);
  EXPECT_TRUE(exec.w.crashed(1));
  EXPECT_EQ(exec.w.counts(1).total(), 4u);
  EXPECT_EQ(exec.w.counts(0).total(), 10u);
  EXPECT_EQ(exec.w.counts(2).total(), 10u);
}

TEST(Nemesis, StallWindowStarvesTheVictim) {
  // Pid 0 is stalled for a 20-step window: it must receive no grants inside
  // the window, yet still finish afterwards.
  ThreeWriterExec exec;
  fault::FaultPlan plan;
  plan.stalls.push_back(fault::StallFault{0, 0, 20});
  sim::RoundRobinScheduler inner;
  fault::Nemesis nemesis(inner, plan);
  sim::RecordingScheduler rec(nemesis);
  EXPECT_TRUE(exec.w.run(rec).all_done);
  EXPECT_GT(nemesis.stall_deflections(), 0u);
  const auto& picks = rec.picks();
  for (std::size_t i = 0; i < 20 && i < picks.size(); ++i) {
    EXPECT_NE(picks[i], 0) << "grant " << i << " went to the stalled victim";
  }
  EXPECT_TRUE(exec.w.done(0));
}

TEST(Nemesis, StallOfEveryProcessYieldsInsteadOfDeadlocking) {
  ThreeWriterExec exec;
  fault::FaultPlan plan;
  for (int pid = 0; pid < 3; ++pid) {
    plan.stalls.push_back(fault::StallFault{pid, 0, 1'000'000});
  }
  sim::RoundRobinScheduler inner;
  fault::Nemesis nemesis(inner, plan);
  EXPECT_TRUE(exec.w.run(nemesis).all_done);
}

TEST(Nemesis, BurstWindowSchedulesOnePidExclusively) {
  ThreeWriterExec exec;
  fault::FaultPlan plan;
  plan.bursts.push_back(fault::BurstFault{2, 0, 6});
  sim::RoundRobinScheduler inner;
  fault::Nemesis nemesis(inner, plan);
  sim::RecordingScheduler rec(nemesis);
  EXPECT_TRUE(exec.w.run(rec).all_done);
  EXPECT_EQ(nemesis.burst_grants(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(rec.picks()[i], 2) << "grant " << i << " escaped the burst";
  }
}

TEST(RandomPlan, RespectsNeverCrashAndSurvivorFloor) {
  Rng rng(123);
  fault::PlanOptions opts;
  opts.max_crashes = 8;  // more than the process count: the floor must bind
  opts.never_crash = {2};
  for (int i = 0; i < 200; ++i) {
    const fault::FaultPlan plan = fault::random_plan(rng, 3, opts);
    std::set<int> victims;
    for (const auto& c : plan.crashes) {
      EXPECT_NE(c.pid, 2);
      EXPECT_TRUE(victims.insert(c.pid).second) << "duplicate crash victim";
    }
    EXPECT_LE(plan.crashes.size(), 2u);
  }
}

TEST(RandomPlan, DescribeMentionsEveryFault) {
  fault::FaultPlan plan;
  plan.crashes.push_back({0, 5});
  plan.stalls.push_back(fault::StallFault{1, 10, 8});
  const std::string s = plan.describe();
  EXPECT_NE(s.find("crash(p0@5)"), std::string::npos) << s;
  EXPECT_NE(s.find("stall(p1,10+8)"), std::string::npos) << s;
  EXPECT_EQ(fault::FaultPlan{}.describe(), "plan: (none)");
}

// ---------------------------------------------------------------------------
// Certifier: campaigns over the snapshot object
// ---------------------------------------------------------------------------

// Two updaters (one update each: 1 write) and one scanner (two tagged scans,
// each n²−1 reads + n+1 writes for n=3 in kOptimized mode: 8r+4w).
struct SnapCampaignExec final : Execution {
  SnapCampaignExec() : w(3), snap(w, 3) {
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await snap.update(ctx, 100 + pid);
      });
    }
    w.spawn(2, [this](Context ctx) -> ProcessTask {
      views.push_back(co_await snap.scan_tagged(ctx));
      views.push_back(co_await snap.scan_tagged(ctx));
    });
  }
  World& world() override { return w; }
  World w;
  AtomicSnapshotSim<int> snap;
  std::vector<TaggedVectorLattice<int>::Value> views;
};

sim::ExecutionFactory snap_factory() {
  return [] { return std::make_unique<SnapCampaignExec>(); };
}

// §6.2 bounds for the scenario above, exact (no slack).
std::vector<fault::StepBound> snap_bounds() {
  return {{0, 1}, {0, 1}, {16, 8}};
}

TEST(Certifier, SnapshotCampaignCertifies) {
  fault::CampaignOptions opts;
  opts.schedules = 60;
  opts.base_seed = 1000;
  opts.plan.never_crash = {2};  // the scanner is the measured process
  const fault::CampaignResult result = fault::certify_wait_freedom(
      snap_factory(), fault::step_bound_judge(snap_bounds()), opts);
  EXPECT_TRUE(result.certified());
  EXPECT_EQ(result.schedules_run, 60);
  EXPECT_TRUE(result.violations.empty());
  // The campaign must actually have exercised faults, not just clean runs.
  EXPECT_GT(result.crashes_fired + result.stall_deflections +
                result.burst_grants,
            0u);
}

TEST(Certifier, CampaignFaultAccountingIsExact) {
  // A fixed-seed campaign whose plans bite on all three fault kinds. The
  // counts are pinned exactly: a change in when crashes fire or in how the
  // Nemesis deflects and bursts shifts them and fails here, instead of
  // silently moving every campaign schedule.
  fault::CampaignOptions opts;
  opts.schedules = 50;
  opts.base_seed = 2024;
  opts.plan.max_crashes = 2;
  opts.plan.crash_horizon = 12;
  opts.plan.step_horizon = 32;
  opts.plan.max_window = 8;
  const fault::CampaignResult result = fault::certify_wait_freedom(
      [] { return std::make_unique<ThreeWriterExec>(); },
      fault::step_bound_judge({{0, 10}, {0, 10}, {0, 10}}), opts);
  EXPECT_TRUE(result.certified());
  EXPECT_EQ(result.crashes_fired, 36u);
  EXPECT_EQ(result.stall_deflections, 48u);
  EXPECT_EQ(result.burst_grants, 102u);
}

TEST(Certifier, ImpossibleBoundProducesViolationWithSchedule) {
  fault::CampaignOptions opts;
  opts.schedules = 3;
  opts.base_seed = 7;
  opts.plan.max_crashes = 0;  // all three run: the scanner must exceed 1 read
  std::vector<fault::StepBound> bounds = snap_bounds();
  bounds[2].reads = 1;
  const fault::CampaignResult result = fault::certify_wait_freedom(
      snap_factory(), fault::step_bound_judge(bounds), opts);
  ASSERT_EQ(result.violations.size(), 3u);
  for (const auto& v : result.violations) {
    EXPECT_NE(v.what.find("reads exceed bound 1"), std::string::npos)
        << v.what;
    EXPECT_FALSE(v.schedule.empty());
    EXPECT_TRUE(v.artifact_path.empty());  // no artifact_dir configured
  }
}

TEST(Certifier, ViolationArtifactReplaysStepIdentically) {
  // Self-test required by the campaign design: inject a violation, then
  // reproduce the flagged run from its emitted artifact, step for step.
  const std::string dir = ::testing::TempDir() + "apram-fault-artifacts";
  std::filesystem::remove_all(dir);

  fault::CampaignOptions opts;
  opts.schedules = 1;
  opts.base_seed = 42;
  opts.artifact_dir = dir;
  std::vector<fault::StepBound> bounds = snap_bounds();
  bounds[2].reads = 0;  // impossible: every scan starts with reads
  const fault::CampaignResult result = fault::certify_wait_freedom(
      snap_factory(), fault::step_bound_judge(bounds), opts);
  ASSERT_EQ(result.violations.size(), 1u);
  const fault::Violation& v = result.violations[0];
  ASSERT_FALSE(v.artifact_path.empty());
  ASSERT_TRUE(std::filesystem::exists(v.artifact_path));

  // Strict replay reconstructs the run: every process performs exactly the
  // accesses the recorded schedule granted it, in the same global order.
  auto replayed = fault::replay_artifact(snap_factory(), v.artifact_path);
  World& w = replayed->world();
  std::vector<std::uint64_t> grants(3, 0);
  for (int pid : v.schedule) ++grants[static_cast<std::size_t>(pid)];
  for (int pid = 0; pid < 3; ++pid) {
    EXPECT_EQ(w.counts(pid).total(), grants[static_cast<std::size_t>(pid)]);
  }
  EXPECT_EQ(w.global_step(), v.schedule.size());

  // The flight dump carries each pid's counts as of the violation, and they
  // are the replayed World's counts.
  const obs::MetricsDoc flight = obs::load_metrics_json(v.flight_path);
  for (int pid = 0; pid < 3; ++pid) {
    const std::string p = ".p" + std::to_string(pid);
    EXPECT_EQ(flight.gauges.at("cert.reads" + p),
              static_cast<std::int64_t>(w.counts(pid).reads));
    EXPECT_EQ(flight.gauges.at("cert.writes" + p),
              static_cast<std::int64_t>(w.counts(pid).writes));
  }

  // And it is deterministic: replaying the artifact twice gives identical
  // scanner views.
  auto replayed2 = fault::replay_artifact(snap_factory(), v.artifact_path);
  EXPECT_EQ(static_cast<SnapCampaignExec&>(*replayed).views,
            static_cast<SnapCampaignExec&>(*replayed2).views);

  std::filesystem::remove_all(dir);
}

TEST(Certifier, DetectsGenuineWaitFreedomFailure) {
  // A spin-lock-ish program that is NOT wait-free: pid 1 spins until pid 0
  // sets a flag; crash pid 0 before the store and pid 1 spins forever. The
  // certifier must report an incomplete execution, not hang.
  struct SpinExec final : Execution {
    SpinExec() : w(2) {
      flag = &w.make<int>(0, 0);
      w.spawn(0, [this](Context ctx) -> ProcessTask {
        co_await ctx.write(*flag, 1);
      });
      w.spawn(1, [this](Context ctx) -> ProcessTask {
        while (co_await ctx.read(*flag) == 0) {
        }
      });
    }
    World& world() override { return w; }
    World w;
    sim::Register<int>* flag;
  };

  fault::CampaignOptions opts;
  opts.schedules = 40;
  opts.base_seed = 5000;
  opts.max_steps = 2'000;
  opts.plan.crash_horizon = 1;  // crashes (if drawn) land before the store
  const fault::CampaignResult result = fault::certify_wait_freedom(
      [] { return std::make_unique<SpinExec>(); }, nullptr, opts);
  ASSERT_FALSE(result.certified());
  bool found = false;
  for (const auto& v : result.violations) {
    if (v.what.find("wait-freedom violation") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Exhaustive exploration: crash-during-Scan on every interleaving
// ---------------------------------------------------------------------------

// Two updaters (one update each) and a scanner doing two tagged scans; an
// optional victim-keyed crash installed via World::schedule_crash. With
// at_access == 0 an updater contributes nothing; with at_access == 1 the
// updater completes first (completion wins) and the crash never fires.
struct SnapCrashExec final : Execution {
  SnapCrashExec(int victim, std::uint64_t at) : w(3), snap(w, 3) {
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await snap.update(ctx, 100 + pid);
      });
    }
    w.spawn(2, [this](Context ctx) -> ProcessTask {
      views.push_back(co_await snap.scan_tagged(ctx));
      views.push_back(co_await snap.scan_tagged(ctx));
    });
    if (victim >= 0) w.schedule_crash(victim, at);
  }
  World& world() override { return w; }
  World w;
  AtomicSnapshotSim<int> snap;
  std::vector<TaggedVectorLattice<int>::Value> views;
};

// Tag of `pid`'s cell in a tagged view. The lattice's ⊥ is the EMPTY vector
// (width-flexible; join widens on demand), so a scan completing before any
// update legitimately returns a view narrower than n — a missing cell reads
// as tag 0, never as an out-of-bounds index.
std::uint64_t tag_of(const TaggedVectorLattice<int>::Value& view, int pid) {
  const auto i = static_cast<std::size_t>(pid);
  return i < view.size() ? view[i].tag : 0;
}

TEST(ExploreWithCrashes, ScanSurvivesCrashAtEveryPossibleStep) {
  using L = TaggedVectorLattice<int>;
  // Campaigns: no crash, then each updater crashed at each of its possible
  // own-access points (0 = before its only write; 1 = past the program, so
  // completion wins and the run must look crash-free to the scanner).
  struct Campaign {
    int victim;
    std::uint64_t at;
  };
  const Campaign campaigns[] = {{-1, 0}, {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  for (const Campaign& c : campaigns) {
    const auto stats = sim::explore_all_schedules(
        [&] { return std::make_unique<SnapCrashExec>(c.victim, c.at); },
        [&](Execution& e, const std::vector<int>&) {
          auto& se = static_cast<SnapCrashExec&>(e);
          // Wait-freedom: the scanner always completes with the exact §6.2
          // cost — two optimized scans at n=3: 2·(n²−1)=16 reads,
          // 2·(n+1)=8 writes — crash or no crash.
          ASSERT_TRUE(se.w.done(2));
          ASSERT_EQ(se.w.counts(2).reads, 16u);
          ASSERT_EQ(se.w.counts(2).writes, 8u);
          // Lemma 32: the two views are comparable, and monotone in time.
          ASSERT_EQ(se.views.size(), 2u);
          ASSERT_TRUE(L::leq(se.views[0], se.views[1]));
          // A victim crashed before its write contributes nothing.
          if (c.victim >= 0 && c.at == 0) {
            ASSERT_TRUE(se.w.crashed(c.victim));
            ASSERT_EQ(tag_of(se.views[1], c.victim), 0u);
          }
          // at == 1 exceeds the updater's single access: completion wins.
          if (c.victim >= 0 && c.at == 1) {
            ASSERT_FALSE(se.w.crashed(c.victim));
            ASSERT_TRUE(se.w.done(c.victim));
          }
        });
    // 24 scanner steps interleaved with the surviving updater writes: a
    // real search, dozens-to-hundreds of executions per campaign.
    EXPECT_GT(stats.executions, 20u)
        << "victim=" << c.victim << " at=" << c.at;
  }
}

}  // namespace
}  // namespace apram
