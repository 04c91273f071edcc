// Tests for the Figure 4 universal construction and the objects built on it:
// counter, grow-set, max-register / Lamport clock, and the FastCounter
// type-optimized variant. Correctness is checked sequentially, under random
// schedules (invariant-based), under crashes (wait-freedom), and for the
// §5.4 O(n²) step cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/universal.hpp"
#include "obs/metrics.hpp"
#include "objects/counter.hpp"
#include "objects/fast_counter.hpp"
#include "objects/grow_set.hpp"
#include "objects/logical_clock.hpp"
#include "sim/scheduler.hpp"
#include "snapshot/scan_stats.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// Sequential behaviour through the full construction
// ---------------------------------------------------------------------------

TEST(UniversalCounter, SequentialSemantics) {
  World w(1);
  CounterSim c(w, 1);
  std::int64_t v1 = -1, v2 = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await c.inc(ctx, 5);
    co_await c.dec(ctx, 2);
    v1 = co_await c.read(ctx);
    co_await c.reset(ctx, 100);
    co_await c.inc(ctx, 1);
    v2 = co_await c.read(ctx);
  });
  EXPECT_TRUE(w.run_solo(0).all_done);
  EXPECT_EQ(v1, 3);
  EXPECT_EQ(v2, 101);
}

TEST(UniversalCounter, TwoProcessesSequentialComposition) {
  World w(2);
  CounterSim c(w, 2);
  std::int64_t seen = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await c.inc(ctx, 7); });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    seen = co_await c.read(ctx);
  });
  w.run_solo(0);
  w.run_solo(1);
  EXPECT_EQ(seen, 7);
}

TEST(UniversalGrowSet, SequentialSemantics) {
  World w(1);
  GrowSetSim s(w, 1);
  bool has3 = false, has9 = true;
  std::int64_t size = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await s.insert(ctx, 3);
    co_await s.insert(ctx, 4);
    co_await s.insert(ctx, 3);
    has3 = co_await s.has(ctx, 3);
    has9 = co_await s.has(ctx, 9);
    size = co_await s.size(ctx);
  });
  w.run_solo(0);
  EXPECT_TRUE(has3);
  EXPECT_FALSE(has9);
  EXPECT_EQ(size, 2);
}

// ---------------------------------------------------------------------------
// Concurrent invariants under random schedules
// ---------------------------------------------------------------------------

TEST(UniversalCounter, IncrementsNeverLostUnderRandomSchedules) {
  // n processes each do k increments of 1 concurrently, then one process
  // reads: the final value must be exactly n*k (inc/dec commute, so the
  // linearization must contain all of them exactly once).
  const int n = 3, k = 4;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    World w(n);
    CounterSim c(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < k; ++i) co_await c.inc(ctx, 1);
        (void)pid;
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);

    // Check the final linearized value via a fresh read by process 0.
    std::int64_t total = -1;
    World w2(1);  // dummy to satisfy API symmetry; reuse w's object instead
    (void)w2;
    // Spawn a second-phase reader in the same world.
    // (Processes are one-shot; create a reader program on pid 0's behalf is
    // not possible — instead recompute from the object's current history.)
    const auto hist = c.universal().current_history();
    std::vector<CounterSpec::Invocation> invs;
    for (const auto* e : hist) invs.push_back(e->inv);
    total = run_sequential<CounterSpec>(invs).final_state;
    EXPECT_EQ(total, n * k) << "seed=" << seed;
  }
}

TEST(UniversalCounter, ReadsAreMonotoneUnderIncOnlyWorkload) {
  // With only increments, any process's successive reads must be
  // non-decreasing, and each read must be at least the number of increments
  // the reader itself completed.
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    World w(n);
    CounterSim c(w, n);
    std::vector<std::vector<std::int64_t>> reads(static_cast<std::size_t>(n));
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 3; ++i) {
          co_await c.inc(ctx, 1);
          const std::int64_t r = co_await c.read(ctx);
          reads[static_cast<std::size_t>(pid)].push_back(r);
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    for (int pid = 0; pid < n; ++pid) {
      const auto& rs = reads[static_cast<std::size_t>(pid)];
      for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_GE(rs[i], static_cast<std::int64_t>(i) + 1);
        EXPECT_LE(rs[i], static_cast<std::int64_t>(n) * 3);
        if (i > 0) {
          EXPECT_GE(rs[i], rs[i - 1]);
        }
      }
    }
  }
}

TEST(UniversalGrowSet, InsertsAreNeverLost) {
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    GrowSetSim s(w, n);
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(n), -1);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await s.insert(ctx, pid * 10);
        co_await s.insert(ctx, pid * 10 + 1);
        const bool mine = co_await s.has(ctx, pid * 10);
        EXPECT_TRUE(mine);  // own insert must be visible to own query
        sizes[static_cast<std::size_t>(pid)] = co_await s.size(ctx);
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    for (auto size : sizes) {
      EXPECT_GE(size, 2);      // saw at least its own two inserts
      EXPECT_LE(size, 2 * n);  // and no phantom elements
    }
  }
}

TEST(UniversalCounter, ResetOverwritesConcurrentIncrements) {
  // Process 1 resets to 0 *after* all of process 0's increments completed:
  // any later read must not see the increments resurrected.
  World w(3);
  CounterSim c(w, 3);
  std::int64_t after = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 3; ++i) co_await c.inc(ctx, 10);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask { co_await c.reset(ctx, 0); });
  w.spawn(2, [&](Context ctx) -> ProcessTask {
    after = co_await c.read(ctx);
  });
  w.run_solo(0);
  w.run_solo(1);
  w.run_solo(2);
  EXPECT_EQ(after, 0);
}

// ---------------------------------------------------------------------------
// Wait-freedom under crashes
// ---------------------------------------------------------------------------

TEST(UniversalCounter, SurvivorCompletesDespiteCrashes) {
  const int n = 4;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    CounterSim c(w, n);
    std::int64_t survivor_read = -1;
    for (int pid = 0; pid + 1 < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 50; ++i) co_await c.inc(ctx, 1);
        (void)pid;
      });
    }
    w.spawn(n - 1, [&](Context ctx) -> ProcessTask {
      co_await c.inc(ctx, 1);
      survivor_read = co_await c.read(ctx);
    });
    w.schedule_crash(0, 20 + seed);
    w.schedule_crash(1, 30 + seed);
    w.schedule_crash(2, 40 + seed);
    sim::RandomScheduler rnd(seed);
    const auto r = w.run(rnd);
    EXPECT_TRUE(r.all_done);
    EXPECT_GE(survivor_read, 1) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// §5.4 cost: O(n²) shared accesses per operation, independent of schedule.
// ---------------------------------------------------------------------------

TEST(UniversalCounter, PerOperationSharedAccessCostIsScanPlusOneWrite) {
  for (int n : {1, 2, 4, 8}) {
    obs::Registry registry;
    World w(n, {.metrics = &registry});
    CounterSim c(w, n);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await c.inc(ctx, 1);
    });
    obs::CounterDelta reads(w.metrics_reads(0));
    obs::CounterDelta writes(w.metrics_writes(0));
    w.run_solo(0);
    EXPECT_EQ(reads.delta(), expected_scan_reads(n, ScanMode::kOptimized));
    EXPECT_EQ(writes.delta(),
              expected_scan_writes(n, ScanMode::kOptimized) + 1);
  }
}

// ---------------------------------------------------------------------------
// Lamport clock
// ---------------------------------------------------------------------------

TEST(LamportClock, TickIsStrictlyIncreasingPerProcess) {
  World w(2);
  LamportClockSim clk(w, 2);
  std::vector<std::int64_t> stamps;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 4; ++i) {
      const std::int64_t t = co_await clk.tick(ctx);
      stamps.push_back(t);
    }
  });
  w.run_solo(0);
  ASSERT_EQ(stamps.size(), 4u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GT(stamps[i], stamps[i - 1]);
  }
}

TEST(LamportClock, ObserveAdvancesPastMessageTimestamp) {
  World w(1);
  LamportClockSim clk(w, 1);
  std::int64_t t = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    t = co_await clk.observe(ctx, 41);
  });
  w.run_solo(0);
  EXPECT_GE(t, 42);
}

TEST(LamportClock, HappenedBeforeIsRespectedAcrossProcesses) {
  // P0 ticks (event a), then P1 observes a's timestamp (message receipt):
  // the receipt's stamp must exceed a's.
  World w(2);
  LamportClockSim clk(w, 2);
  std::int64_t ta = -1, tb = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask { ta = co_await clk.tick(ctx); });
  w.run_solo(0);
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    tb = co_await clk.observe(ctx, ta);
  });
  w.run_solo(1);
  EXPECT_GT(tb, ta);
}

TEST(LamportClock, StampsAreGloballyUniqueUnderConcurrency) {
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    LamportClockSim clk(w, n);
    std::vector<LamportClockSim::Stamp> all;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&](Context ctx) -> ProcessTask {
        for (int i = 0; i < 3; ++i) {
          const auto st = co_await clk.stamp(ctx);
          all.push_back(st);
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    auto sorted = all;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end())
        << "duplicate (time, pid) stamp, seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// FastCounter (type-optimized) agrees with the universal counter
// ---------------------------------------------------------------------------

TEST(FastCounter, SequentialSemantics) {
  World w(1);
  FastCounterSim c(w, 1);
  std::int64_t v = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await c.inc(ctx, 5);
    co_await c.dec(ctx, 3);
    co_await c.inc(ctx, 1);
    v = co_await c.read(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(v, 3);
}

TEST(FastCounter, ConcurrentIncrementsAllCounted) {
  const int n = 4, k = 5;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    FastCounterSim c(w, n);
    std::int64_t last = -1;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < k; ++i) co_await c.inc(ctx, 1);
        if (pid == 0) last = co_await c.read(ctx);
      });
    }
    // Ensure pid 0 reads last: run others first under random, then pid 0.
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    // pid 0's read happened at some point; it must be between its own k and n*k.
    EXPECT_GE(last, k);
    EXPECT_LE(last, n * k);
  }
}

TEST(FastCounter, UpdateCostIsOneWrite) {
  obs::Registry registry;
  World w(6, {.metrics = &registry});
  FastCounterSim c(w, 6);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await c.inc(ctx, 1); });
  obs::CounterDelta reads(w.metrics_reads(0));
  obs::CounterDelta writes(w.metrics_writes(0));
  w.run_solo(0);
  EXPECT_EQ(reads.delta(), 0u);
  EXPECT_EQ(writes.delta(), 1u);
}

}  // namespace
}  // namespace apram
