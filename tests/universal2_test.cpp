// universal2 — the normalized fast-path/slow-path wait-free simulator
// (WaitFreeSim + HelpQueue) and its two clients, exercised across the
// repo's verification tiers:
//
//   * sequential semantics for Counter2 and SortedSet (sim, solo runs)
//   * exact fast-path step counts (counter mutation = 1 read + 1 CAS)
//   * the help-first discipline's periodic queue peek, priced exactly
//   * HelpQueue FIFO order, (stamp, pid) tie-break, retraction
//   * forced-slow-path runs (max_fast_attempts = 0) where every mutation
//     goes through announce → help → retire, including self-help solo
//   * randomized adversaries: concurrent counters sum exactly, concurrent
//     set operations keep membership consistent with the response history
//   * exhaustive schedule enumeration for inc-vs-read and enqueue-vs-enqueue
//   * crash injection: an enqueuer dying mid-publish either left no trace
//     or is completed by a helper — never a half-applied operation
//   * the counter's owner rule, on one deterministic crash schedule: a
//     helper overwriting an install of its own pending op keeps it applied
//   * evidence only where a helper can ask: exact contended counter costs
//     over fast-path and announced installs, and a lost fast-path set CAS
//     that costs the CAS alone
//   * rt storms agree with the sequential spec (sim-vs-rt access parity is
//     in parity_test)
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "obs/analyze.hpp"
#include "obs/trace.hpp"
#include "rt/thread_harness.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/help_queue.hpp"
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
using SimQueue = HelpQueue<api::SimBackend, int>;

// ---------------------------------------------------------------------------
// Counter: sequential semantics (sim, solo runs)
// ---------------------------------------------------------------------------

TEST(U2Counter, SoloSequentialSemantics) {
  const int n = 4;
  World w(n);
  SimCounter c(w, n);
  std::int64_t got = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    std::int64_t r = co_await c.inc(ctx, 5);
    EXPECT_EQ(r, 0);  // mutators respond 0 (CounterSpec)
    co_await c.inc(ctx, 2);
    co_await c.dec(ctx, 3);
    got = co_await c.read(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(got, 4);

  // Another process sees the same object; reset overwrites everything.
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await c.reset(ctx, 10);
    got = co_await c.read(ctx);
  });
  w.run_solo(1);
  EXPECT_EQ(got, 10);
  for (int p = 0; p < n; ++p) {
    EXPECT_EQ(c.sim().slow_path_entries(p), 0u) << "pid " << p;
  }
}

// ---------------------------------------------------------------------------
// Step counts: the uncontended fast path is O(1) — the whole point of the
// normalized construction, and the gap bench_e6 measures against the
// paper's O(n²) scan-per-op universal object.
// ---------------------------------------------------------------------------

TEST(U2Counter, UncontendedFastPathIsOneReadPlusOneCas) {
  for (int n : {2, 4, 8, 16}) {
    World w(n);
    SimCounter::Config cfg;
    cfg.help_period = 0;  // isolate the rep's own cost
    SimCounter c(w, n, cfg);

    const auto before = w.counts(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask { co_await c.inc(ctx); });
    w.run_solo(0);
    const auto mid = w.counts(0);
    EXPECT_EQ(mid.total() - before.total(), 2u) << "n=" << n;
    EXPECT_EQ(mid.reads - before.reads, 1u) << "n=" << n;

    w.spawn(0, [&](Context ctx) -> ProcessTask { (void)co_await c.read(ctx); });
    w.run_solo(0);
    const auto after = w.counts(0);
    EXPECT_EQ(after.total() - mid.total(), 1u) << "n=" << n;  // read: 1 read
    EXPECT_EQ(c.sim().slow_path_entries(0), 0u);
  }
}

TEST(U2Counter, HelpPeriodAddsOneQueuePeekEveryKthOp) {
  const int n = 8;
  World w(n);
  SimCounter::Config cfg;
  cfg.help_period = 4;
  SimCounter c(w, n, cfg);

  // Ops 1 and 5 peek (ops_started ≡ 0 mod 4): n extra reads on an empty
  // queue. Ops 2–4 are pure fast path.
  const std::uint64_t expected[] = {static_cast<std::uint64_t>(n) + 2, 2, 2,
                                    2, static_cast<std::uint64_t>(n) + 2};
  for (const std::uint64_t want : expected) {
    const auto before = w.counts(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask { co_await c.inc(ctx); });
    w.run_solo(0);
    const auto after = w.counts(0);
    EXPECT_EQ(after.total() - before.total(), want);
  }
  std::int64_t got = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask { got = co_await c.read(ctx); });
  w.run_solo(0);
  EXPECT_EQ(got, 5);
}

// ---------------------------------------------------------------------------
// Forced slow path: max_fast_attempts = 0 sends every mutation through
// announce → help → retire. Solo, the announcer helps itself to completion
// (nobody else is scheduled), so this exercises the full state machine.
// ---------------------------------------------------------------------------

TEST(U2Counter, ForcedSlowPathCompletesBySelfHelp) {
  const int n = 4;
  World w(n);
  SimCounter::Config cfg;
  cfg.max_fast_attempts = 0;
  SimCounter c(w, n, cfg);
  std::int64_t got = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await c.inc(ctx, 7);
    co_await c.dec(ctx, 2);
    got = co_await c.read(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(got, 5);
  EXPECT_EQ(c.sim().slow_path_entries(0), 2u);  // both mutations; read is fast

  // The announce was retracted and the state record retired.
  EXPECT_FALSE(c.sim().queue().cell_at(0).peek().active);
  EXPECT_EQ(static_cast<int>(c.sim().state_at(0).peek().stage),
            static_cast<int>(SimCounter::Sim::Stage::kIdle));
}

// ---------------------------------------------------------------------------
// Concurrency under randomized adversaries: final value is the exact sum,
// whatever the interleaving — including with the slow path forced on.
// ---------------------------------------------------------------------------

TEST(U2Counter, ConcurrentIncrementsSumExactlyUnderRandomSchedules) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const double sticky : {0.0, 0.5}) {
      const int n = 4;
      const int kOps = 3;
      World w(n);
      SimCounter c(w, n);
      for (int pid = 0; pid < n; ++pid) {
        w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
          for (int i = 0; i < kOps; ++i) {
            co_await c.inc(ctx, pid + 1);
          }
        });
      }
      sim::RandomScheduler rs(seed, sticky);
      ASSERT_TRUE(w.run(rs).all_done);
      std::int64_t got = -1;
      w.spawn(0, [&](Context ctx) -> ProcessTask {
        got = co_await c.read(ctx);
      });
      w.run_solo(0);
      EXPECT_EQ(got, kOps * (1 + 2 + 3 + 4))
          << "seed=" << seed << " sticky=" << sticky;
    }
  }
}

TEST(U2Counter, ForcedSlowPathSumsExactlyAndAllRecordsRetire) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const int n = 4;
    const int kOps = 3;
    World w(n);
    SimCounter::Config cfg;
    cfg.max_fast_attempts = 0;  // every inc announces; helpers race
    cfg.help_period = 1;        // and every op helps first
    SimCounter c(w, n, cfg);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < kOps; ++i) {
          co_await c.inc(ctx, 1);
        }
      });
    }
    sim::RandomScheduler rs(seed, 0.3);
    ASSERT_TRUE(w.run(rs).all_done);
    std::int64_t got = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await c.read(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(got, n * kOps) << "seed=" << seed;
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(c.sim().slow_path_entries(p),
                static_cast<std::uint64_t>(kOps));
      EXPECT_FALSE(c.sim().queue().cell_at(p).peek().active) << "pid " << p;
      EXPECT_EQ(static_cast<int>(c.sim().state_at(p).peek().stage),
                static_cast<int>(SimCounter::Sim::Stage::kIdle))
          << "pid " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// HelpQueue: FIFO by (stamp, pid), bounded cost, retraction.
// ---------------------------------------------------------------------------

TEST(U2HelpQueue, FifoOrderAndRetraction) {
  const int n = 4;
  World w(n);
  SimQueue q(w, n);

  auto announce = [&](int pid, int op) {
    w.spawn(pid, [&, pid, op](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, 1, op);
    });
    w.run_solo(pid);
  };
  auto head_pid = [&]() {
    int got = -1;
    w.spawn(1, [&](Context ctx) -> ProcessTask {
      std::optional<SimQueue::Head> h = co_await q.peek(ctx);
      got = h.has_value() ? h->pid : -1;
    });
    w.run_solo(1);
    return got;
  };
  auto retract = [&](int pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      co_await q.dequeue(ctx);
    });
    w.run_solo(pid);
  };

  EXPECT_EQ(head_pid(), -1);  // empty
  announce(2, 22);            // stamps: 2 → 1
  announce(0, 10);            //         0 → 2
  announce(3, 33);            //         3 → 3
  EXPECT_EQ(head_pid(), 2);   // FIFO: announce order, not pid order
  retract(2);
  EXPECT_EQ(head_pid(), 0);
  retract(0);
  EXPECT_EQ(head_pid(), 3);
  retract(3);
  EXPECT_EQ(head_pid(), -1);

  // Bounded cost: enqueue = n+2 accesses (bakery scan + own read + CAS),
  // peek = n reads, dequeue = 2.
  const auto before = w.counts(0);
  announce(0, 1);
  const auto mid = w.counts(0);
  EXPECT_EQ(mid.total() - before.total(), static_cast<std::uint64_t>(n) + 2);
  retract(0);
  const auto after = w.counts(0);
  EXPECT_EQ(after.total() - mid.total(), 2u);
}

// Exhaustive: two concurrent enqueuers, every interleaving. The head is
// always the active announce with minimum (stamp, pid); equal stamps (both
// scanned before either installed) break toward the lower pid.
struct QueuePairExec final : Execution {
  QueuePairExec() : w(2), q(w, 2) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, 1, 10);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, 1, 20);
    });
  }
  World& world() override { return w; }
  World w;
  SimQueue q;
};

TEST(U2HelpQueueExplore, HeadIsTheMinStampPidOnEverySchedule) {
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<QueuePairExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        auto& x = static_cast<QueuePairExec&>(e);
        const auto c0 = x.q.cell_at(0).peek();
        const auto c1 = x.q.cell_at(1).peek();
        ASSERT_TRUE(c0.active && c1.active);
        // Stamps are 1 and 2 (serialized scans) or 1 and 1 (overlapping).
        ASSERT_GE(c0.stamp, 1u);
        ASSERT_GE(c1.stamp, 1u);
        ASSERT_LE(c0.stamp + c1.stamp, 3u);
        const int head = (c1.stamp < c0.stamp) ? 1 : 0;  // pid tie-break
        int got = -1;
        x.w.spawn(0, [&x, &got](Context ctx) -> ProcessTask {
          std::optional<SimQueue::Head> h = co_await x.q.peek(ctx);
          got = h.has_value() ? h->pid : -1;
        });
        x.w.run_solo(0);
        ASSERT_EQ(got, head);
      });
  EXPECT_GT(stats.executions, 10u);
}

// ---------------------------------------------------------------------------
// Counter explore: one inc racing one read — every schedule yields a
// linearizable outcome (read sees 0 or 1; the inc is applied exactly once).
// ---------------------------------------------------------------------------

struct CounterIncReadExec final : Execution {
  CounterIncReadExec() : w(2) {
    SimCounter::Config cfg;
    cfg.help_period = 0;  // smallest schedule space: pure fast path
    c = std::make_unique<SimCounter>(w, 2, cfg);
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await c->inc(ctx);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      seen = co_await c->read(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  std::unique_ptr<SimCounter> c;
  std::int64_t seen = -1;
};

TEST(U2CounterExplore, IncVsReadIsLinearizableOnEverySchedule) {
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<CounterIncReadExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        auto& x = static_cast<CounterIncReadExec&>(e);
        ASSERT_TRUE(x.seen == 0 || x.seen == 1);
        const auto cell = x.c->rep().cell_register().peek();
        ASSERT_EQ(cell.value, 1);                    // applied exactly once
        ASSERT_EQ(x.c->rep().applied_opseq(0), 1u);  // and in the evidence
      });
  EXPECT_GT(stats.executions, 1u);
}

// ---------------------------------------------------------------------------
// Crash injection: an enqueuer dying mid-slow-path. Depending on the crash
// offset the announce is either not yet published (no trace) or published,
// in which case any helper completes the operation exactly once.
// ---------------------------------------------------------------------------

TEST(U2Counter, CrashedAnnouncerIsCompletedByAHelperExactlyOnce) {
  const int n = 3;
  // Sweep the crash across every access of the forced-slow-path inc: before
  // the record install, mid-bakery-scan, after the announce, mid-self-help.
  for (std::uint64_t at = 0; at < 20; ++at) {
    World w(n, {.crashes = {{.pid = 1, .at_access = at}}});
    SimCounter::Config cfg;
    cfg.max_fast_attempts = 0;
    cfg.help_period = 1;  // every op helps first
    SimCounter c(w, n, cfg);
    w.spawn(1, [&](Context ctx) -> ProcessTask { co_await c.inc(ctx, 100); });
    w.run_solo(1);  // crashes somewhere inside (or completes, at large `at`)

    // Survivor pid 0 runs its own ops; its help-first pass adopts pid 1's
    // announce if one was published.
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await c.inc(ctx, 1);
      co_await c.inc(ctx, 1);
    });
    w.run_solo(0);
    const auto cell = c.rep().cell_register().peek();
    // pid 1's inc is all-or-nothing: value is 2 (+100 iff its op was
    // announced in time), never a partial or doubled effect.
    EXPECT_TRUE(cell.value == 2 || cell.value == 102) << "at=" << at;
    EXPECT_EQ(cell.value == 102, c.rep().applied_opseq(1) == 1u)
        << "at=" << at;
  }
}

// ---------------------------------------------------------------------------
// The owner rule: an attempt skips raising applied[r] only when its OWN op
// belongs to r. Here pid 1, in its own slow path, drives pid 0's op over an
// install of pid 1's still-pending op that a helper made. The raise is the
// only evidence pid 1's own wrap-up can find; skipping it because the
// executor owns the install would re-prepare pid 1's op and count it twice.
// ---------------------------------------------------------------------------

TEST(U2Counter, HelperOverwritingItsOwnPendingInstallKeepsItApplied) {
  const int n = 3;
  World w(n);
  SimCounter::Config cfg;
  cfg.max_fast_attempts = 0;  // every inc announces itself
  cfg.help_period = 0;        // only slow-path waiters help
  SimCounter c(w, n, cfg);
  const CounterRep<api::SimBackend>& rep = c.rep();
  const auto& queue = c.sim().queue();
  for (int p = 0; p < n; ++p) {
    w.spawn(p, [&c](Context ctx) -> ProcessTask { co_await c.inc(ctx, 1); });
  }
  const auto un = static_cast<std::uint64_t>(n);
  const std::uint64_t record = 2;        // read + CAS of the own record
  const std::uint64_t enqueue = un + 2;  // bakery scan, own cell read, CAS

  // pid 0 publishes its record and scans an empty queue (stamp 1), then
  // pauses before its announce.
  for (std::uint64_t k = 0; k < record + un; ++k) ASSERT_TRUE(w.step(0));
  // pid 1 announces, also with stamp 1; it is the head for now.
  for (std::uint64_t k = 0; k < record + enqueue; ++k) ASSERT_TRUE(w.step(1));
  ASSERT_FALSE(queue.cell_at(0).peek().active);
  ASSERT_EQ(queue.cell_at(1).peek().stamp, 1u);

  // pid 2 announces, waits (1 record read), peeks (n reads) and helps pid 1:
  // record read, prepare, candidate install, record read, decision CAS. It
  // crashes before it can mark pid 1's record done.
  w.schedule_crash(2, record + enqueue + 1 + un + 5);
  w.run_solo(2);
  ASSERT_TRUE(w.crashed(2));
  ASSERT_EQ(rep.cell_register().peek().tag, rep.tag_of({1, 1, true}));
  ASSERT_EQ(c.sim().state_at(1).peek().stage,
            SimCounter::Sim::Stage::kCandidate);

  // pid 0 completes its announce with stamp 1, which makes it the head (ties
  // break toward the lower pid), and crashes.
  w.schedule_crash(0, record + enqueue);
  w.run_solo(0);
  ASSERT_TRUE(w.crashed(0));
  ASSERT_TRUE(queue.cell_at(0).peek().active);
  ASSERT_EQ(queue.cell_at(0).peek().stamp, 1u);

  // pid 1 helps the head: pid 0's candidate expects pid 1's own install, and
  // pid 1's decision CAS overwrites it. Its self-help must then resolve its
  // own op as applied, and the value must count it once.
  w.run_solo(1);
  ASSERT_TRUE(w.done(1));
  const auto cell = rep.cell_register().peek();
  // pid 0's op was installed last.
  EXPECT_EQ(cell.tag, rep.tag_of({0, 1, true}));
  EXPECT_EQ(cell.value, 2);
  EXPECT_EQ(rep.applied_opseq(0), 1u);
  EXPECT_EQ(rep.applied_opseq(1), 1u);
}

// ---------------------------------------------------------------------------
// Evidence only where a helper can ask: an install by a fast-path op (its id
// is unannounced) is overwritten without raising applied[], and a lost fast
// CAS returns without resolve reads. An announced install still gets its
// raise. Exact costs on one deterministic schedule.
// ---------------------------------------------------------------------------

TEST(U2Counter, ContendedFastPathKeepsEvidenceOnlyForAnnouncedInstalls) {
  const int n = 3;
  World w(n);
  SimCounter::Config cfg;
  cfg.max_fast_attempts = 1;  // one lost fast CAS sends an inc slow
  cfg.help_period = 0;        // no queue peeks: the rep's costs alone
  SimCounter c(w, n, cfg);
  const CounterRep<api::SimBackend>& rep = c.rep();
  auto inc = [&c](Context ctx) -> ProcessTask { co_await c.inc(ctx, 1); };

  // pid 0 installs its op on the fast path.
  w.spawn(0, inc);
  w.run_solo(0);
  ASSERT_EQ(rep.cell_register().peek().tag, rep.tag_of({0, 1}));

  // pid 1 reads the cell (pid 0's install) and pauses before its CAS.
  w.spawn(1, inc);
  ASSERT_TRUE(w.step(1));

  // pid 2 overwrites pid 0's fast-path install: no raise, 1 read + 1 CAS.
  const auto p2_before = w.counts(2);
  w.spawn(2, inc);
  w.run_solo(2);
  const auto p2_first = w.counts(2) - p2_before;
  EXPECT_EQ(p2_first.reads, 1u);
  EXPECT_EQ(p2_first.writes, 1u);

  // pid 1's fast CAS loses and returns at once; the slow path then installs
  // the op under its announced tag: 15 reads + 8 writes for the whole op.
  w.run_solo(1);
  ASSERT_TRUE(w.done(1));
  const auto p1 = w.counts(1);
  EXPECT_EQ(p1.reads, 15u);
  EXPECT_EQ(p1.writes, 8u);
  EXPECT_EQ(c.sim().slow_path_entries(1), 1u);
  ASSERT_EQ(rep.cell_register().peek().tag, rep.tag_of({1, 1, true}));

  // pid 2's next inc overwrites an announced install, so it raises
  // applied[1]: 2 reads + 2 CAS.
  const auto p2_mid = w.counts(2);
  w.spawn(2, inc);
  w.run_solo(2);
  const auto p2_second = w.counts(2) - p2_mid;
  EXPECT_EQ(p2_second.reads, 2u);
  EXPECT_EQ(p2_second.writes, 2u);

  const auto cell = rep.cell_register().peek();
  EXPECT_EQ(cell.tag, rep.tag_of({2, 2}));
  EXPECT_EQ(cell.value, 4);
  EXPECT_EQ(rep.applied_opseq(0), 1u);
  EXPECT_EQ(rep.applied_opseq(1), 1u);
  EXPECT_EQ(rep.applied_opseq(2), 2u);
}

// ---------------------------------------------------------------------------
// SortedSet: sequential semantics (sim, solo runs)
// ---------------------------------------------------------------------------

TEST(U2Set, SoloSequentialSemantics) {
  const int n = 2;
  World w(n);
  SimSet s(w, n, /*capacity_per_proc=*/8);
  std::vector<std::int64_t> rs;
  std::vector<std::int64_t> keys;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    rs.push_back(co_await s.insert(ctx, 5));
    rs.push_back(co_await s.insert(ctx, 5));  // duplicate
    rs.push_back(co_await s.insert(ctx, 3));
    rs.push_back(co_await s.insert(ctx, 7));
    rs.push_back(co_await s.contains(ctx, 5));
    rs.push_back(co_await s.contains(ctx, 4));
    rs.push_back(co_await s.remove(ctx, 5));
    rs.push_back(co_await s.remove(ctx, 5));  // already gone
    rs.push_back(co_await s.contains(ctx, 5));
    keys = co_await s.rep().snapshot_keys(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(rs, (std::vector<std::int64_t>{1, 0, 1, 1, 1, 0, 1, 0, 0}));
  EXPECT_EQ(keys, (std::vector<std::int64_t>{3, 7}));

  // The other process observes the same list.
  std::int64_t got = -1;
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    got = co_await s.contains(ctx, 7);
  });
  w.run_solo(1);
  EXPECT_EQ(got, 1);
}

// Membership must equal the net of *acknowledged* operations, whatever the
// interleaving. Each process hammers a shared key range; afterwards the
// per-key balance of successful inserts minus successful removes is 0 or 1
// and matches the final membership.
void run_set_contention(std::uint64_t seed) {
  const int n = 4;
  World w(n);
  SimSet obj(w, n, /*capacity_per_proc=*/64);
  // Per-key net balance: +1 per acked insert, -1 per acked remove. Keys
  // 0..4 are contested by everyone.
  constexpr int kKeys = 5;
  std::int64_t net[kKeys] = {};
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          std::int64_t a = co_await obj.insert(ctx, k);
          net[k] += a;
          if ((pid + round + k) % 2 == 0) {
            std::int64_t r = co_await obj.remove(ctx, k);
            net[k] -= r;
          }
          std::int64_t in = co_await obj.contains(ctx, k);
          EXPECT_TRUE(in == 0 || in == 1);
        }
      }
    });
  }
  sim::RandomScheduler rs(seed, 0.3);
  ASSERT_TRUE(w.run(rs).all_done);
  std::vector<std::int64_t> keys;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    keys = co_await obj.rep().snapshot_keys(ctx);
  });
  w.run_solo(0);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "duplicate key in the list";
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(net[k] == 0 || net[k] == 1) << "key " << k;
    const bool present =
        std::find(keys.begin(), keys.end(), k) != keys.end();
    EXPECT_EQ(present, net[k] == 1) << "key " << k << " seed " << seed;
  }
}

TEST(U2Set, ContendedOpsKeepMembershipConsistentWithResponses) {
  for (const std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    run_set_contention(seed);
  }
}

TEST(U2Set, ForcedSlowPathKeepsMembershipConsistent) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    const int n = 4;
    World w(n);
    SimSet::Config cfg;
    cfg.max_fast_attempts = 0;
    cfg.help_period = 1;
    SimSet s(w, n, /*capacity_per_proc=*/64, cfg);
    std::int64_t acked[4] = {};
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        // Everyone fights to insert the same three keys.
        for (const std::int64_t k : {7, 3, 9}) {
          std::int64_t a = co_await s.insert(ctx, k);
          acked[pid] += a;
        }
      });
    }
    sim::RandomScheduler rs(seed, 0.2);
    ASSERT_TRUE(w.run(rs).all_done);
    // Exactly one ack per key across all processes.
    EXPECT_EQ(acked[0] + acked[1] + acked[2] + acked[3], 3) << "seed=" << seed;
    std::vector<std::int64_t> keys;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      keys = co_await s.rep().snapshot_keys(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(keys, (std::vector<std::int64_t>{3, 7, 9})) << "seed=" << seed;
    std::uint64_t slow = 0;
    for (int p = 0; p < n; ++p) slow += s.sim().slow_path_entries(p);
    EXPECT_GT(slow, 0u);
  }
}

// A fast-path set op whose decision CAS loses returns at once: only its
// owner executes an unannounced candidate, so the node was never linked and
// the mark never set. An announced op's lost CAS still resolves.
TEST(U2Set, LostFastPathCasCostsExactlyTheCas) {
  using Rep = SortedListRep<api::SimBackend>;
  const int n = 2;
  World w(n);
  Rep rep(w, n, /*capacity_per_proc=*/8);
  auto prepare = [&](int pid, OpId id, Rep::Invocation inv) {
    Rep::Prep prep;
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      prep = co_await rep.prepare(ctx, id, inv);
    });
    w.run_solo(pid);
    EXPECT_FALSE(prep.done);
    return prep;
  };
  struct Attempt {
    Outcome<std::int64_t> out;
    obs::AccessCounts cost;
  };
  auto attempt = [&](int pid, OpId id, Rep::Invocation inv,
                     const Rep::Prep& prep) {
    Attempt a;
    const auto before = w.counts(pid);
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      a.out = co_await rep.attempt(ctx, id, inv, prep);
    });
    w.run_solo(pid);
    a.cost = w.counts(pid) - before;
    return a;
  };
  // pid 0 prepares (id, inv), pid 1 runs its rival op to completion, then
  // pid 0 attempts its now stale candidate.
  auto overtaken = [&](OpId id, Rep::Invocation inv, OpId rival,
                       Rep::Invocation rival_inv) {
    const Rep::Prep mine = prepare(0, id, inv);
    const Rep::Prep theirs = prepare(1, rival, rival_inv);
    EXPECT_TRUE(attempt(1, rival, rival_inv, theirs).out.decided);
    return attempt(0, id, inv, mine);
  };

  // Insert: pid 1 swings the head link that pid 0's candidate expects.
  const Attempt insert =
      overtaken({0, 1}, Rep::insert(5), {1, 1}, Rep::insert(3));
  EXPECT_FALSE(insert.out.decided);
  EXPECT_EQ(insert.cost.reads, 0u);
  EXPECT_EQ(insert.cost.writes, 1u);

  // Remove: pid 1 marks key 3 first.
  const Attempt remove =
      overtaken({0, 2}, Rep::remove(3), {1, 2}, Rep::remove(3));
  EXPECT_FALSE(remove.out.decided);
  EXPECT_EQ(remove.cost.reads, 0u);
  EXPECT_EQ(remove.cost.writes, 1u);

  // The same loss for an announced insert still runs the resolve search.
  const Attempt announced =
      overtaken({0, 3, true}, Rep::insert(9), {1, 3}, Rep::insert(8));
  EXPECT_FALSE(announced.out.decided);
  EXPECT_GT(announced.cost.reads, 0u);
  EXPECT_EQ(announced.cost.writes, 1u);

  std::vector<std::int64_t> keys;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    keys = co_await rep.snapshot_keys(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{8}));
}

// ---------------------------------------------------------------------------
// Counter cell: a decision CAS compares the tag alone (the install id of the
// mutation that wrote the cell). Same checks on both backends.
// ---------------------------------------------------------------------------

// Runs one coroutine for one pid to completion: sim solo, rt inline.
struct SimRunner {
  using B = api::SimBackend;
  explicit SimRunner(int n) : mem(n) {}
  template <class F>
  void run(int pid, F f) {
    mem.spawn(pid, [&](Context ctx) -> ProcessTask { co_await f(ctx); });
    mem.run_solo(pid);
  }
  B::Mem mem;
};

struct RtRunner {
  using B = api::RtBackend;
  explicit RtRunner(int n) : mem(n) {}
  template <class F>
  void run(int pid, F f) { f(B::Ctx{pid}).get(); }
  B::Mem mem;
};

template <class Runner>
void check_tag_only_expected() {
  using B = typename Runner::B;
  using Rep = CounterRep<B>;
  using Ctx = typename B::Ctx;
  using Step = typename B::template Coro<void>;
  const int n = 3;
  Runner r(n);
  Rep rep(r.mem, n);
  const OpId a{0, 1};
  const OpId b{1, 1};
  EXPECT_EQ(rep.tag_of(a), 4u);  // opseq*n + pid + 1
  EXPECT_EQ(rep.tag_of(b), 5u);
  typename Rep::Prep pa;
  typename Rep::Prep pb;
  r.run(0, [&](Ctx ctx) -> Step {
    pa = co_await rep.prepare(ctx, a, CounterSpec::inc(5));
  });
  r.run(1, [&](Ctx ctx) -> Step {
    pb = co_await rep.prepare(ctx, b, CounterSpec::inc(7));
  });
  for (const auto* p : {&pa, &pb}) {
    ASSERT_FALSE(p->done);
    EXPECT_EQ(p->expected.tag, 0u);  // the initial cell
  }
  EXPECT_EQ(pa.desired.tag, rep.tag_of(a));
  EXPECT_EQ(pa.desired.value, 5);
  EXPECT_EQ(pb.desired.tag, rep.tag_of(b));

  // pa expects the current tag and carries a fresh one: it wins.
  Outcome<std::int64_t> oa;
  r.run(0, [&](Ctx ctx) -> Step {
    oa = co_await rep.attempt(ctx, a, CounterSpec::inc(5), pa);
  });
  EXPECT_TRUE(oa.decided);

  // pb's expected tag is now stale: its CAS loses and b is not applied.
  Outcome<std::int64_t> ob;
  r.run(1, [&](Ctx ctx) -> Step {
    ob = co_await rep.attempt(ctx, b, CounterSpec::inc(7), pb);
  });
  EXPECT_FALSE(ob.decided);

  // A hand-built candidate at the current tag wins, whatever value its
  // `expected` carries: == looks at the tag alone.
  typename Rep::Prep pc = pb;
  pc.expected = {rep.tag_of(a), -1};
  pc.desired = {rep.tag_of(b), 12};
  Outcome<std::int64_t> oc;
  r.run(1, [&](Ctx ctx) -> Step {
    oc = co_await rep.attempt(ctx, b, CounterSpec::inc(7), pc);
  });
  EXPECT_TRUE(oc.decided);

  typename Rep::Prep read;
  r.run(2, [&](Ctx ctx) -> Step {
    read = co_await rep.prepare(ctx, OpId{2, 1}, CounterSpec::read());
  });
  EXPECT_TRUE(read.done);
  EXPECT_EQ(read.resp, 12);
}

TEST(U2Counter, DecisionCasExpectsTheTagAloneOnBothBackends) {
  check_tag_only_expected<SimRunner>();
  check_tag_only_expected<RtRunner>();
}

// ---------------------------------------------------------------------------
// rt storms: real threads, real contention; totals must match the spec.
// ---------------------------------------------------------------------------

TEST(U2Rt, CounterIncStormSumsExactly) {
  const int n = 8;
  const int kOps = 2000;
  Counter2RT c(n);
  rt::parallel_run(n, [&](int pid) {
    for (int i = 0; i < kOps; ++i) {
      c.inc(pid, 1);
    }
  });
  EXPECT_EQ(c.read(0), static_cast<std::int64_t>(n) * kOps);
}

TEST(U2Rt, ForcedSlowPathCounterStormSumsExactly) {
  const int n = 4;
  const int kOps = 300;
  Counter2RT::Config cfg;
  cfg.max_fast_attempts = 0;
  cfg.help_period = 1;
  Counter2RT c(n, cfg);
  rt::parallel_run(n, [&](int pid) {
    for (int i = 0; i < kOps; ++i) {
      c.inc(pid, 1);
    }
  });
  EXPECT_EQ(c.read(0), static_cast<std::int64_t>(n) * kOps);
  std::uint64_t slow = 0;
  for (int p = 0; p < n; ++p) slow += c.slow_path_entries(p);
  EXPECT_EQ(slow, static_cast<std::uint64_t>(n) * kOps);
}

TEST(U2Rt, SortedSetStormMatchesAcknowledgedOperations) {
  const int n = 8;
  const int kDisjoint = 100;
  constexpr int kShared = 4;
  const int kRounds = 50;
  // Capacity: disjoint inserts + shared-key attempts (each prepare of an
  // absent key burns a node, helpers included) with generous slack.
  SortedSetRT set(n, /*capacity_per_proc=*/kDisjoint + 16 * kRounds + 64);
  std::atomic<std::int64_t> net[kShared];
  for (auto& a : net) a.store(0);
  rt::parallel_run(n, [&](int pid) {
    for (int i = 0; i < kDisjoint; ++i) {
      EXPECT_EQ(set.insert(pid, 1000 + pid * 1000 + i), 1);
    }
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < kShared; ++k) {
        net[k].fetch_add(set.insert(pid, k));
        if ((pid + r) % 2 == 0) {
          net[k].fetch_sub(set.remove(pid, k));
        }
        const std::int64_t in = set.contains(pid, k);
        EXPECT_TRUE(in == 0 || in == 1);
      }
    }
  });
  const std::vector<std::int64_t> keys = set.snapshot_keys(0);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  std::size_t disjoint_found = 0;
  for (const std::int64_t k : keys) {
    if (k >= 1000) ++disjoint_found;
  }
  EXPECT_EQ(disjoint_found, static_cast<std::size_t>(n) * kDisjoint);
  for (int k = 0; k < kShared; ++k) {
    const std::int64_t balance = net[k].load();
    ASSERT_TRUE(balance == 0 || balance == 1) << "key " << k;
    const bool present = std::find(keys.begin(), keys.end(), k) != keys.end();
    EXPECT_EQ(present, balance == 1) << "key " << k;
  }
}

// ---------------------------------------------------------------------------
// Help bound, re-derived from a trace: a complete universal2 op emits at
// most n−1 kHelp events (one per distinct helped process). The forced
// slow path with help_period=1 is the worst case — every op helps — and
// the padded negative control proves the checker can actually reject.
// ---------------------------------------------------------------------------

TEST(U2Trace, HelpBoundHoldsOnRealTracesAndRejectsPaddedOnes) {
  const int n = 4;
  obs::Tracer tracer(n, 1 << 16);
  {
    World w(n, {.tracer = &tracer});
    SimCounter::Config cfg;
    cfg.max_fast_attempts = 0;
    cfg.help_period = 1;
    SimCounter c(w, n, cfg);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int i = 0; i < 3; ++i) {
          co_await c.inc(ctx, pid + 1);
        }
      });
    }
    sim::RandomScheduler rs(/*seed=*/99, 0.3);
    ASSERT_TRUE(w.run(rs).all_done);
  }
  std::vector<obs::TraceEvent> events = tracer.events();
  const obs::TraceAnalysis analysis = obs::analyze(events);
  const obs::BoundReport report = obs::check_u2_help_bound(analysis);
  EXPECT_TRUE(report.ok()) << obs::format_report(report);
  EXPECT_GT(report.checked, 0u);

  // Negative control: pad one complete op past the bound.
  const std::vector<const obs::OpStats*> complete =
      analysis.complete_of(obs::OpKind::kU2Execute);
  ASSERT_FALSE(complete.empty());
  for (int i = 0; i < n; ++i) {
    obs::TraceEvent help;
    help.kind = obs::EventKind::kHelp;
    help.pid = complete.front()->pid;
    help.op = complete.front()->op;
    events.push_back(help);
  }
  const obs::BoundReport padded =
      obs::check_u2_help_bound(obs::analyze(events));
  EXPECT_FALSE(padded.ok());
}

// ---------------------------------------------------------------------------
// The paper universal construction, backend-generic port: same semantics
// through the same facade bench_e6 uses as its baseline.
// ---------------------------------------------------------------------------

TEST(U2PaperUniversal, SimMatchesSequentialCounterSemantics) {
  const int n = 3;
  World w(n);
  PaperUniversal<api::SimBackend, CounterSpec> u(w, n);
  std::int64_t got = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await u.execute(ctx, CounterSpec::inc(4));
    co_await u.execute(ctx, CounterSpec::dec(1));
    got = co_await u.execute(ctx, CounterSpec::read());
  });
  w.run_solo(0);
  EXPECT_EQ(got, 3);
  w.spawn(2, [&](Context ctx) -> ProcessTask {
    co_await u.execute(ctx, CounterSpec::inc(7));
    got = co_await u.execute(ctx, CounterSpec::read());
  });
  w.run_solo(2);
  EXPECT_EQ(got, 10);
  EXPECT_EQ(u.entries_created(0), 3u);
}

TEST(U2PaperUniversal, ConcurrentExecutionsAgreeUnderRandomSchedules) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    const int n = 3;
    World w(n);
    PaperUniversal<api::SimBackend, CounterSpec> u(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await u.execute(ctx, CounterSpec::inc(pid + 1));
        co_await u.execute(ctx, CounterSpec::inc(10));
      });
    }
    sim::RandomScheduler rs(seed, 0.4);
    ASSERT_TRUE(w.run(rs).all_done);
    std::int64_t got = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await u.execute(ctx, CounterSpec::read());
    });
    w.run_solo(0);
    EXPECT_EQ(got, (1 + 2 + 3) + 3 * 10) << "seed=" << seed;
  }
}

TEST(U2PaperUniversal, RtWrapperMatchesSpecUnderThreads) {
  const int n = 4;
  const int kOps = 50;
  PaperUniversalRT<CounterSpec> u(n);
  rt::parallel_run(n, [&](int pid) {
    for (int i = 0; i < kOps; ++i) {
      u.execute(pid, CounterSpec::inc(1));
    }
  });
  EXPECT_EQ(u.execute(0, CounterSpec::read()),
            static_cast<std::int64_t>(n) * kOps);
}

}  // namespace
}  // namespace apram::universal2
