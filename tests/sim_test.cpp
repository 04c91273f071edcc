// Unit tests for the asynchronous PRAM simulator: coroutine stepping,
// register semantics, schedulers, crash injection, replay determinism.
#include <gtest/gtest.h>

#include <vector>

#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

namespace apram::sim {
namespace {

// A process that copies `src` to `dst` k times (2k accesses).
ProcessTask copier(Context ctx, const Register<int>& src, Register<int>& dst,
                   int k) {
  for (int i = 0; i < k; ++i) {
    const int v = co_await ctx.read(src);
    co_await ctx.write(dst, v);
  }
}

TEST(World, SingleProcessRunsToCompletion) {
  World w(1);
  auto& src = w.make<int>(7);
  auto& dst = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return copier(ctx, src, dst, 3); });
  const RunResult r = w.run_solo(0);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(dst.peek(), 7);
  EXPECT_EQ(w.counts(0).reads, 3u);
  EXPECT_EQ(w.counts(0).writes, 3u);
  EXPECT_EQ(r.steps_taken, 6u);
}

TEST(World, StepGranularityIsOneAccess) {
  World w(1);
  auto& src = w.make<int>(1);
  auto& dst = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return copier(ctx, src, dst, 1); });
  // First grant performs the read...
  w.step(0);
  EXPECT_EQ(w.counts(0).reads, 1u);
  EXPECT_EQ(w.counts(0).writes, 0u);
  EXPECT_EQ(dst.peek(), 0);
  // ...second grant performs the write.
  w.step(0);
  EXPECT_EQ(w.counts(0).writes, 1u);
  EXPECT_EQ(dst.peek(), 1);
  EXPECT_TRUE(w.done(0));
}

TEST(World, InterleavingIsSchedulerControlled) {
  // Classic lost-update interleaving: both processes read 0, both write 1.
  World w(2);
  auto& reg = w.make<int>(0);
  auto incr = [&](Context ctx) -> ProcessTask {
    const int v = co_await ctx.read(reg);
    co_await ctx.write(reg, v + 1);
  };
  w.spawn(0, incr);
  w.spawn(1, incr);
  FixedScheduler sched({0, 1, 0, 1});
  const RunResult r = w.run(sched);
  EXPECT_TRUE(r.all_done);
  EXPECT_EQ(reg.peek(), 1);  // the lost update happened, by construction
}

TEST(World, SequentialScheduleAvoidsLostUpdate) {
  World w(2);
  auto& reg = w.make<int>(0);
  auto incr = [&](Context ctx) -> ProcessTask {
    const int v = co_await ctx.read(reg);
    co_await ctx.write(reg, v + 1);
  };
  w.spawn(0, incr);
  w.spawn(1, incr);
  FixedScheduler sched({0, 0, 1, 1});
  w.run(sched);
  EXPECT_EQ(reg.peek(), 2);
}

TEST(World, SingleWriterEnforced) {
  World w(2);
  auto& reg = w.make<int>(0, /*writer=*/0);
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await ctx.write(reg, 5);  // illegal: pid 1 writing pid 0's register
  });
  EXPECT_DEATH(w.step(1), "single-writer");
}

TEST(World, ReadOfForeignSingleWriterRegisterIsFine) {
  World w(2);
  auto& reg = w.make<int>(42, /*writer=*/0);
  int out = 0;
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    out = co_await ctx.read(reg);
  });
  w.run_solo(1);
  EXPECT_EQ(out, 42);
}

TEST(World, CrashStopsProcessButOthersFinish) {
  World w(2);
  auto& a = w.make<int>(0);
  auto body = [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 10; ++i) co_await ctx.write(a, i);
  };
  w.spawn(0, body);
  w.spawn(1, body);
  w.step(0);
  w.crash(0);
  EXPECT_FALSE(w.runnable(0));
  RoundRobinScheduler rr;
  const RunResult r = w.run(rr);
  EXPECT_TRUE(r.all_done);  // all non-crashed processes finished
  EXPECT_TRUE(w.done(1));
  EXPECT_FALSE(w.done(0));
}

TEST(World, TraceRecordsAccesses) {
  obs::Tracer tracer(1, 64);
  World w(1, {.tracer = &tracer});
  auto& src = w.make<int>(0);
  auto& dst = w.make<int>(0);
  w.spawn(0, [&](Context ctx) { return copier(ctx, src, dst, 2); });
  w.run_solo(0);
  std::vector<obs::TraceEvent> accesses;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.kind == obs::EventKind::kRead || ev.kind == obs::EventKind::kWrite ||
        ev.kind == obs::EventKind::kCas) {
      accesses.push_back(ev);
    }
  }
  ASSERT_EQ(accesses.size(), 4u);
  EXPECT_EQ(accesses[0].kind, obs::EventKind::kRead);
  EXPECT_EQ(accesses[0].object, src.id());
  EXPECT_EQ(accesses[1].kind, obs::EventKind::kWrite);
  EXPECT_EQ(accesses[1].object, dst.id());
  EXPECT_EQ(accesses[3].when, 3u);
}

// Sub-coroutine (SimCoro) composition: a shared-memory procedure awaited by
// the top-level process; suspensions inside must reach the scheduler.
SimCoro<int> sum_two(Context ctx, const Register<int>& x,
                     const Register<int>& y) {
  const int a = co_await ctx.read(x);
  const int b = co_await ctx.read(y);
  co_return a + b;
}

TEST(SimCoro, NestedProcedureStepsCountAndInterleave) {
  World w(2);
  auto& x = w.make<int>(10);
  auto& y = w.make<int>(20);
  int result = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    result = co_await sum_two(ctx, x, y);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await ctx.write(y, 99);  // interleaved between P0's two reads
  });
  FixedScheduler sched({0, 1, 0});
  w.run(sched);
  EXPECT_EQ(result, 10 + 99);
  EXPECT_EQ(w.counts(0).reads, 2u);
  EXPECT_EQ(w.counts(1).writes, 1u);
}

SimCoro<int> doubly_nested(Context ctx, const Register<int>& x,
                           const Register<int>& y) {
  const int s = co_await sum_two(ctx, x, y);
  const int t = co_await sum_two(ctx, x, y);
  co_return s + t;
}

TEST(SimCoro, TwoLevelsOfNesting) {
  World w(1);
  auto& x = w.make<int>(1);
  auto& y = w.make<int>(2);
  int result = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    result = co_await doubly_nested(ctx, x, y);
  });
  const RunResult r = w.run_solo(0);
  EXPECT_EQ(result, 6);
  EXPECT_EQ(r.steps_taken, 4u);
}

TEST(SimCoro, VoidProcedure) {
  World w(1);
  auto& x = w.make<int>(0);
  auto setter = [](Context ctx, Register<int>& r, int v) -> SimCoro<void> {
    co_await ctx.write(r, v);
  };
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await setter(ctx, x, 5);
    co_await setter(ctx, x, 6);
  });
  w.run_solo(0);
  EXPECT_EQ(x.peek(), 6);
}

TEST(Scheduler, RoundRobinIsFair) {
  World w(3);
  auto& reg = w.make<int>(0);
  std::vector<int> order;
  for (int pid = 0; pid < 3; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      co_await ctx.read(reg);
      order.push_back(pid);
      co_await ctx.read(reg);
      order.push_back(pid);
    });
  }
  RoundRobinScheduler rr;
  w.run(rr);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Scheduler, RandomIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    World w(3);
    auto& reg = w.make<int>(0);
    std::vector<int> order;
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 5; ++i) {
          co_await ctx.read(reg);
          order.push_back(pid);
        }
      });
    }
    RandomScheduler rs(seed);
    w.run(rs);
    return order;
  };
  EXPECT_EQ(run_once(123), run_once(123));
  EXPECT_NE(run_once(123), run_once(456));
}

TEST(Scheduler, RecordingSchedulerReproducesRun) {
  auto build = [](std::vector<int>* order) {
    auto w = std::make_unique<World>(2);
    auto& reg = w->make<int>(0);
    for (int pid = 0; pid < 2; ++pid) {
      w->spawn(pid, [&reg, order, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 4; ++i) {
          co_await ctx.read(reg);
          order->push_back(pid);
        }
      });
    }
    return w;
  };

  std::vector<int> order1;
  auto w1 = build(&order1);
  RandomScheduler rs(99);
  RecordingScheduler rec(rs);
  w1->run(rec);

  std::vector<int> order2;
  auto w2 = build(&order2);
  FixedScheduler replay_sched(rec.picks());
  w2->run(replay_sched);

  EXPECT_EQ(order1, order2);
}

TEST(ScheduleCrash, InjectsFailureUnderRoundRobin) {
  World w(2);
  auto& reg = w.make<int>(0);
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      for (int i = 0; i < 10; ++i) co_await ctx.read(reg);
    });
  }
  w.schedule_crash(0, 4);  // crash pid 0 before its 5th own access
  RoundRobinScheduler rr;
  const RunResult r = w.run(rr);
  EXPECT_TRUE(r.all_done);
  EXPECT_FALSE(w.done(0));
  EXPECT_TRUE(w.crashed(0));
  EXPECT_TRUE(w.done(1));
  EXPECT_LE(w.counts(0).reads, 4u);
  EXPECT_EQ(w.counts(1).reads, 10u);
}

TEST(World, MaxStepsGuardsNontermination) {
  World w(1);
  auto& reg = w.make<int>(0);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (;;) co_await ctx.read(reg);  // deliberately non-terminating
  });
  RoundRobinScheduler rr;
  EXPECT_DEATH(w.run(rr, 100), "max_steps");
}

// Replay: outputs after replaying a recorded prefix match the original run.
struct CounterExec final : Execution {
  explicit CounterExec(int procs) : w(procs) {
    reg = &w.make<int>(0);
    outs.resize(static_cast<std::size_t>(procs), -1);
    for (int pid = 0; pid < procs; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 3; ++i) {
          const int v = co_await ctx.read(*reg);
          co_await ctx.write(*reg, v + 1);
        }
        outs[static_cast<std::size_t>(pid)] = co_await ctx.read(*reg);
      });
    }
  }
  World& world() override { return w; }

  World w;
  Register<int>* reg = nullptr;
  std::vector<int> outs;
};

TEST(Replay, PrefixThenSoloIsDeterministic) {
  ExecutionFactory factory = [] { return std::make_unique<CounterExec>(2); };

  // Record a random partial run.
  auto live = factory();
  RandomScheduler rs(7);
  RecordingScheduler rec(rs);
  live->world().run_steps(rec, /*steps=*/5);

  auto a = replay_then_solo(factory, rec.picks(), /*pid=*/0);
  auto b = replay_then_solo(factory, rec.picks(), /*pid=*/0);
  auto& ea = static_cast<CounterExec&>(*a);
  auto& eb = static_cast<CounterExec&>(*b);
  EXPECT_EQ(ea.outs[0], eb.outs[0]);
  EXPECT_TRUE(ea.world().done(0));
  EXPECT_EQ(ea.reg->peek(), eb.reg->peek());
}

TEST(Replay, EmptyPrefixSoloMatchesRunSolo) {
  ExecutionFactory factory = [] { return std::make_unique<CounterExec>(2); };
  auto a = replay_then_solo(factory, {}, /*pid=*/1);
  auto& ea = static_cast<CounterExec&>(*a);
  EXPECT_EQ(ea.outs[1], 3);  // ran alone: three increments then read
}

}  // namespace
}  // namespace apram::sim
