// Additional simulator coverage: multi-phase respawn, scheduler fallbacks
// and stickiness, trace/step-accounting invariants, and the interaction of
// crash injection with partial runs.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

namespace apram::sim {
namespace {

TEST(Respawn, SecondProgramRunsAfterFirstCompletes) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await ctx.write(reg, 1); });
  w.run_solo(0);
  EXPECT_TRUE(w.done(0));

  w.spawn(0, [&](Context ctx) -> ProcessTask {
    const int v = co_await ctx.read(reg);
    co_await ctx.write(reg, v + 10);
  });
  EXPECT_FALSE(w.done(0));
  w.run_solo(0);
  EXPECT_EQ(reg.peek(), 11);
}

TEST(Respawn, StepCountsAccumulateAcrossPrograms) {
  World w(1);
  auto& reg = w.make<int>(0);
  for (int phase = 0; phase < 3; ++phase) {
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await ctx.write(reg, 1);
      co_await ctx.write(reg, 2);
    });
    w.run_solo(0);
  }
  EXPECT_EQ(w.counts(0).writes, 6u);
}

TEST(Respawn, RunningProcessCannotBeRespawned) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await ctx.read(reg);
    co_await ctx.read(reg);
  });
  w.step(0);  // mid-program
  EXPECT_DEATH(
      w.spawn(0, [&](Context ctx) -> ProcessTask { co_await ctx.read(reg); }),
      "spawned while running");
}

TEST(Respawn, CrashedProcessCannotBeRespawned) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 5; ++i) co_await ctx.read(reg);
  });
  w.crash(0);
  EXPECT_DEATH(
      w.spawn(0, [&](Context ctx) -> ProcessTask { co_await ctx.read(reg); }),
      "crashed");
}

TEST(FixedScheduler, RoundRobinFallbackFinishesTheRun) {
  World w(2);
  auto& reg = w.make<int>(0);
  std::vector<int> order;
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      for (int i = 0; i < 3; ++i) {
        co_await ctx.read(reg);
        order.push_back(pid);
      }
    });
  }
  FixedScheduler sched({1, 1});
  EXPECT_FALSE(w.run(sched).all_done);
  RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 1);
}

TEST(FixedScheduler, StopFallbackLeavesWorkUnfinished) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 5; ++i) co_await ctx.read(reg);
  });
  FixedScheduler sched({0, 0});
  const auto r = w.run(sched);
  EXPECT_FALSE(r.all_done);
  EXPECT_EQ(r.steps_taken, 2u);
}

TEST(FixedScheduler, SkipsFinishedProcessEntries) {
  World w(2);
  auto& reg = w.make<int>(0);
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&](Context ctx) -> ProcessTask { co_await ctx.read(reg); });
  }
  // Pid 0 appears more often than it has steps; extras must be skipped.
  FixedScheduler sched({0, 0, 0, 1});
  const auto r = w.run(sched);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(r.steps_taken, 2u);
}

TEST(RandomScheduler, StickinessKeepsBursts) {
  World w(2);
  auto& reg = w.make<int>(0);
  std::vector<int> order;
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      for (int i = 0; i < 50; ++i) {
        co_await ctx.read(reg);
        order.push_back(pid);
      }
    });
  }
  RandomScheduler sched(5, /*stickiness=*/0.95);
  w.run(sched);
  // Sticky schedules produce long runs: count alternations, which should be
  // far below the ~50 expected of a uniform interleaving.
  int alternations = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    alternations += order[i] != order[i - 1];
  }
  EXPECT_LT(alternations, 25);
}

// The access events (kRead/kWrite/kCas) a tracer recorded, in step order.
std::vector<obs::TraceEvent> access_events(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.kind == obs::EventKind::kRead || ev.kind == obs::EventKind::kWrite ||
        ev.kind == obs::EventKind::kCas) {
      out.push_back(ev);
    }
  }
  return out;
}

TEST(Trace, GlobalStepMatchesTraceLength) {
  obs::Tracer tracer(2, 64);
  World w(2, {.tracer = &tracer});
  auto& reg = w.make<int>(0);
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      co_await ctx.read(reg);
      co_await ctx.write(reg, 1);
    });
  }
  RoundRobinScheduler rr;
  w.run(rr);
  const std::vector<obs::TraceEvent> trace = access_events(tracer);
  EXPECT_EQ(trace.size(), w.global_step());
  // Steps in the trace are strictly increasing and attributed correctly.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].when, i);
    EXPECT_TRUE(trace[i].pid == 0 || trace[i].pid == 1);
  }
}

TEST(Trace, ReadsAndWritesAttributedToRightRegisters) {
  obs::Tracer tracer(1, 64);
  World w(1, {.tracer = &tracer});
  auto& a = w.make<int>(0);
  auto& b = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await ctx.read(a);
    co_await ctx.write(b, 1);
    co_await ctx.read(b);
  });
  w.run_solo(0);
  const std::vector<obs::TraceEvent> trace = access_events(tracer);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].object, a.id());
  EXPECT_EQ(trace[0].kind, obs::EventKind::kRead);
  EXPECT_EQ(trace[1].object, b.id());
  EXPECT_EQ(trace[1].kind, obs::EventKind::kWrite);
  EXPECT_EQ(trace[2].object, b.id());
}

TEST(World, RegisterNamesAndIdsAreStable) {
  World w(1);
  auto& a = w.make<int>(0);
  auto& b = w.make<int>(0, /*writer=*/0);
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(b.id(), 1);
  EXPECT_EQ(w.register_at(1).writer(), 0);
  EXPECT_EQ(w.num_registers(), 2);
}

TEST(World, NumRunnableTracksLifecycle) {
  World w(3);
  auto& reg = w.make<int>(0);
  EXPECT_EQ(w.num_runnable(), 0);  // nothing spawned yet
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&](Context ctx) -> ProcessTask { co_await ctx.read(reg); });
  }
  EXPECT_EQ(w.num_runnable(), 2);
  w.crash(0);
  EXPECT_EQ(w.num_runnable(), 1);
  w.step(1);
  EXPECT_EQ(w.num_runnable(), 0);
  EXPECT_TRUE(w.all_done());  // crashed processes don't block completion
}

TEST(World, ZeroAccessProgramCompletesAtSpawn) {
  World w(1);
  bool ran = false;
  w.spawn(0, [&](Context) -> ProcessTask {
    ran = true;
    co_return;
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(w.done(0));
  EXPECT_TRUE(w.all_done());
}

TEST(ScheduleCrash, CrashAtStepZeroPreventsAllProgress) {
  World w(2);
  auto& reg = w.make<int>(0);
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      for (int i = 0; i < 4; ++i) co_await ctx.read(reg);
    });
  }
  w.schedule_crash(0, 0);
  RoundRobinScheduler rr;
  w.run(rr);
  EXPECT_EQ(w.counts(0).reads, 0u);
  EXPECT_EQ(w.counts(1).reads, 4u);
}

// A threshold fires once. The incarnation revived after it fired runs its
// whole program, whether revive() materializes the frame at once (eager) or
// at the first grant (lazy_spawn).
TEST(ScheduleCrash, FiredThresholdSparesTheRevivedIncarnation) {
  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy_spawn" : "eager spawn");
    World::Options options;
    options.lazy_spawn = lazy;
    World w(1, options);
    auto& reg = w.make<int>(0, /*writer=*/0);
    const auto four_writes = [&](Context ctx) -> ProcessTask {
      for (int i = 0; i < 4; ++i) co_await ctx.write(reg, i);
    };
    w.spawn(0, four_writes);
    w.schedule_crash(0, 2);
    w.run_solo(0);
    ASSERT_TRUE(w.crashed(0));
    EXPECT_EQ(w.counts(0).writes, 2u);

    w.revive(0, four_writes);
    EXPECT_TRUE(w.run_solo(0).all_done);
    EXPECT_TRUE(w.done(0));
    EXPECT_EQ(w.counts(0).writes, 2u + 4u);
  }
}

}  // namespace
}  // namespace apram::sim
