// PolylogQueue and UnionFind — the two farray clients — across the repo's
// verification tiers:
//
//   queue: sequential FIFO semantics, exact solo step counts (enqueue
//   1 + 4h, dequeue 2 + 4h), linearizability against QueueSpec under random
//   schedules, exhaustive n = 2 enumeration with a per-schedule lincheck,
//   a seeded fault campaign (crash the helper mid-refresh), and an rt
//   multi-thread smoke with per-producer FIFO order.
//
//   union-find: agreement with the sequential oracle on the full same-set
//   matrix, linearizability of unite/find/same_set against UnionFindSpec,
//   one-read num_sets checked as an overcount-free bound (exact in
//   quiescence, pinned by a targeted paused-linker schedule — num_sets is
//   deliberately NOT in the lincheck spec, see union_find.hpp), and a
//   seeded fault campaign with the (bounded, see union_find.hpp) retry
//   budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "fault/certifier.hpp"
#include "fault_seeds.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/specs.hpp"
#include "objects/union_find.hpp"
#include "rt/thread_harness.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;

using SimQueue = PolylogQueue<api::SimBackend>;
using SimUF = UnionFind<api::SimBackend>;
using QSpec = QueueSpec;
using UFSpec = UnionFindSpec<8>;

// ---------------------------------------------------------------------------
// Queue: sequential semantics
// ---------------------------------------------------------------------------

TEST(PolylogQueue, SoloRunsAreFifoAcrossProcesses) {
  const int n = 3;
  World w(n);
  SimQueue q(w, n);

  const auto enq = [&](int pid, std::int64_t v) {
    w.spawn(pid, [&, v](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, v);
    });
    w.run_solo(pid);
  };
  const auto deq = [&](int pid) {
    std::int64_t got = -2;
    w.spawn(pid, [&](Context ctx) -> ProcessTask {
      got = co_await q.dequeue(ctx);
    });
    w.run_solo(pid);
    return got;
  };

  EXPECT_EQ(deq(0), -1);  // empty: totalized dequeue
  enq(0, 10);
  enq(1, 20);
  enq(2, 30);
  EXPECT_EQ(deq(1), 10);  // FIFO across producers, any consumer
  enq(0, 40);
  EXPECT_EQ(deq(2), 20);
  EXPECT_EQ(deq(2), 30);
  EXPECT_EQ(deq(0), 40);
  EXPECT_EQ(deq(1), -1);
}

// Within one root block, enqueues linearize before dequeues. Both leaf
// writes land before either process refreshes, so pid 0's walk installs one
// root block holding pid 0's dequeue and pid 1's enqueue; the dequeue must
// take the value even though its leaf is to the left of the enqueue's.
TEST(PolylogQueue, SameRootBlockEnqueueLinearizesBeforeDequeue) {
  World w(2);
  SimQueue q(w, 2);
  std::int64_t got = -2;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    got = co_await q.dequeue(ctx);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await q.enqueue(ctx, 5);
  });
  ASSERT_TRUE(w.step(0));  // pid 0's leaf write
  ASSERT_TRUE(w.step(1));  // pid 1's leaf write
  w.run_solo(0);  // pid 1 stays mid-enqueue, so not all_done
  EXPECT_EQ(got, 5);
  ASSERT_TRUE(w.run_solo(1).all_done);

  std::int64_t after = -2;
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    after = co_await q.dequeue(ctx);
  });
  ASSERT_TRUE(w.run_solo(1).all_done);
  EXPECT_EQ(after, -1);  // the one value was taken exactly once
}

// A refresh whose CAS loses returns its node block to its store. n = 4:
// pids 0 and 1 write their leaves and both read node 2's children; pid 0
// installs first, so pid 1's first CAS loses with a block no register ever
// held. Its second attempt finds the children unmoved and reinstalls pid
// 0's block, and its root refresh installs one block of its own.
TEST(PolylogQueue, LostRefreshReturnsItsBlockToTheStore) {
  World w(4);
  SimQueue q(w, 4);
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&q, pid](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, 10 * (pid + 1));
    });
  }
  std::vector<int> picks;
  const auto grant = [&picks](int pid, int steps) {
    picks.insert(picks.end(), static_cast<std::size_t>(steps), pid);
  };
  grant(0, 1);  // leaf writes
  grant(1, 1);
  grant(0, 3);  // pid 0 reads node 2 and both leaves
  grant(1, 3);  // pid 1 reads them too and makes a node block
  grant(0, 1);  // pid 0's CAS at node 2 installs
  grant(1, 1);  // pid 1's CAS at node 2 loses
  grant(1, 4);  // pid 1 reinstalls pid 0's block at node 2
  grant(1, 4);  // pid 1 installs its root block
  grant(0, 4);  // pid 0 finds the root current and reinstalls it
  sim::FixedScheduler sched(picks, sim::FixedScheduler::Divergence::kFail);
  ASSERT_TRUE(w.run(sched).all_done);
  EXPECT_EQ(w.counts(0).total(), 9u);   // 1 + 4h, no retry
  EXPECT_EQ(w.counts(1).total(), 13u);  // one level retried
  // Each store holds its leaf block plus the node blocks it installed.
  EXPECT_EQ(q.blocks(0), 2u);
  EXPECT_EQ(q.blocks(1), 2u);

  // The reused slot holds pid 1's root block: the order is intact.
  for (const std::int64_t want : {10, 20, -1}) {
    std::int64_t got = -2;
    w.spawn(2, [&](Context ctx) -> ProcessTask {
      got = co_await q.dequeue(ctx);
    });
    ASSERT_TRUE(w.run_solo(2).all_done);
    EXPECT_EQ(got, want);
  }
}

// A lost CAS whose refresh found the children unmoved tried to reinstall
// the node's own block, which is published: nothing goes back to the store.
// n = 2: pid 1 reads root block B0 with both leaves current, then pid 0's
// dequeue installs over B0 before pid 1's CAS.
TEST(PolylogQueue, LostReinstallKeepsThePublishedBlock) {
  World w(2);
  SimQueue q(w, 2);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await q.enqueue(ctx, 10); });
  w.spawn(1, [&](Context ctx) -> ProcessTask { co_await q.enqueue(ctx, 20); });
  ASSERT_TRUE(w.step(0));  // leaf writes
  ASSERT_TRUE(w.step(1));
  w.run_solo(0);  // pid 0 installs B0
  ASSERT_TRUE(w.done(0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.step(1));  // reads B0, leaves
  std::int64_t got = -2;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    got = co_await q.dequeue(ctx);
  });
  w.run_solo(0);  // installs over B0
  ASSERT_TRUE(w.done(0));
  EXPECT_EQ(got, 10);
  ASSERT_TRUE(w.run_solo(1).all_done);  // loses once, then reinstalls
  EXPECT_EQ(w.counts(1).total(), 9u);
  EXPECT_EQ(q.blocks(0), 4u);  // two leaf blocks, two root blocks
  EXPECT_EQ(q.blocks(1), 1u);  // its leaf block only
}

// ---------------------------------------------------------------------------
// Queue: exact solo step counts (the register-model costs the queue_op
// trace bound certifies with margin).
// ---------------------------------------------------------------------------

TEST(PolylogQueue, SoloOpsMatchTheClosedForms) {
  for (int n : {1, 2, 4, 8, 16}) {
    World w(n);
    SimQueue q(w, n);
    const auto h = static_cast<std::uint64_t>(farray::farray_height(n));

    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await q.enqueue(ctx, 7);
    });
    w.run_solo(0);
    const auto after_enq = w.counts(0);
    // enqueue = farray write: 1 leaf write + h·(3 reads + 1 CAS).
    EXPECT_EQ(after_enq.total(), 1 + 4 * h) << "n=" << n;
    EXPECT_EQ(after_enq.reads, 3 * h) << "n=" << n;
    EXPECT_EQ(after_enq.writes, 1 + h) << "n=" << n;

    std::int64_t got = -2;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await q.dequeue(ctx);
    });
    w.run_solo(0);
    const auto after_deq = w.counts(0);
    EXPECT_EQ(got, 7) << "n=" << n;
    // dequeue = enqueue's cost + one root read.
    EXPECT_EQ(after_deq.total() - after_enq.total(), 2 + 4 * h) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Queue: linearizability under random schedules (QueueSpec is the repo's
// Property-1 NEGATIVE example — not constructible from reads and writes —
// so checking the CAS-based implementation against it is the point).
// ---------------------------------------------------------------------------

std::vector<RecordedOp<QSpec>> record_queue_run(std::uint64_t seed, int n,
                                                int ops_per_proc) {
  World w(n);
  SimQueue q(w, n);
  HistoryRecorder<QSpec> rec;
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      Rng rng(seed * 977 + static_cast<std::uint64_t>(pid));
      for (int i = 0; i < ops_per_proc; ++i) {
        if (rng.chance(0.55)) {
          const auto inv = QSpec::enq(pid * 100 + i);
          const auto tok = rec.begin(pid, inv);
          co_await q.enqueue(ctx, pid * 100 + i);
          rec.end(tok, 0);
        } else {
          const auto inv = QSpec::deq();
          const auto tok = rec.begin(pid, inv);
          const std::int64_t r = co_await q.dequeue(ctx);
          rec.end(tok, r);
        }
      }
    });
  }
  sim::RandomScheduler sched(seed, /*stickiness=*/0.3);
  EXPECT_TRUE(w.run(sched).all_done);
  return rec.take();
}

// n = 4 walks right subtrees at both levels; n = 5 has padding leaves.
TEST(PolylogQueue, RandomScheduleHistoriesAreLinearizable) {
  for (int n : {2, 3, 4, 5}) {
    for (std::uint64_t seed = 0; seed < 15; ++seed) {
      auto h = record_queue_run(seed, n, 3);
      EXPECT_TRUE(is_linearizable<QSpec>(std::move(h)))
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Queue: exhaustive n = 2 enumeration, lincheck on every schedule.
// ---------------------------------------------------------------------------

struct QueuePairExec final : Execution {
  QueuePairExec() : w(2), q(w, 2) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      const auto tok = rec.begin(0, QSpec::enq(1));
      co_await q.enqueue(ctx, 1);
      rec.end(tok, 0);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      const auto tok = rec.begin(1, QSpec::deq());
      deq_result = co_await q.dequeue(ctx);
      rec.end(tok, deq_result);
    });
  }
  World& world() override { return w; }
  World w;
  SimQueue q;
  HistoryRecorder<QSpec> rec;
  std::int64_t deq_result = -2;
};

TEST(PolylogQueueExplore, EveryScheduleLinearizes) {
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<QueuePairExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        auto& x = static_cast<QueuePairExec&>(e);
        ASSERT_TRUE(x.deq_result == -1 || x.deq_result == 1) << x.deq_result;
        ASSERT_TRUE(is_linearizable<QSpec>(x.rec.take()));
      });
  // Solo lengths are 5 (enqueue) and 6 (dequeue), which alone would give
  // C(11,5) = 462 interleavings; schedules where a CAS loses the race take a
  // second refresh attempt and branch further, so the full tree is larger.
  EXPECT_GE(stats.executions, 462u);
}

// ---------------------------------------------------------------------------
// Queue: fault campaign — crash the helper mid-refresh. Three producers
// enqueue once each (any of them may die between the leaf append and the
// end of the root walk); the never-crashed consumer dequeues twice and must
// stay within its closed-form budget regardless.
// ---------------------------------------------------------------------------

struct QueueCampaignExec final : Execution {
  QueueCampaignExec() : w(4), q(w, 4) {
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await q.enqueue(ctx, 100 + pid);
      });
    }
    w.spawn(3, [this](Context ctx) -> ProcessTask {
      deqs[0] = co_await q.dequeue(ctx);
      deqs[1] = co_await q.dequeue(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimQueue q;
  std::int64_t deqs[2] = {-2, -2};
};

TEST(PolylogQueueFault, CampaignCertifiesLogarithmicStepBounds) {
  std::uint64_t total_schedules = 0;
  std::uint64_t total_faults = 0;
  for (const std::uint64_t base : fault_seeds::kQueueCampaignSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 60;
    opts.base_seed = base;
    opts.plan.never_crash = {3};  // the consumer is the measured process
    // n = 4, h = 2. Contended enqueue ≤ 6h reads + (1 + 2h) writes; each
    // dequeue adds one root read; the consumer performs two dequeues.
    const fault::CampaignResult result = fault::certify_wait_freedom(
        [] { return std::make_unique<QueueCampaignExec>(); },
        fault::step_bound_judge({{12, 5}, {12, 5}, {12, 5}, {26, 10}}), opts);
    EXPECT_TRUE(result.certified())
        << "base_seed=" << base << ": "
        << (result.violations.empty() ? "no schedules ran"
                                      : result.violations[0].what);
    total_schedules += result.schedules_run;
    total_faults += result.crashes_fired + result.stall_deflections +
                    result.burst_grants;
  }
  EXPECT_GE(total_schedules, 180u);
  EXPECT_GT(total_faults, 0u);
}

// ---------------------------------------------------------------------------
// Queue: rt smoke — producers/consumers on real threads; every value is
// dequeued exactly once and per-producer FIFO order is preserved.
// ---------------------------------------------------------------------------

TEST(PolylogQueueRt, ThreadsPreservePerProducerFifoAndLoseNothing) {
  const int n = 4;
  const int kPerThread = 32;
  PolylogQueueRT q(n);

  std::vector<std::vector<std::int64_t>> popped(static_cast<std::size_t>(n));
  rt::parallel_run(n, [&](int pid) {
    for (int i = 0; i < kPerThread; ++i) {
      q.enqueue(pid, pid * 1000 + i);
      if (i % 2 == 1) {
        const std::int64_t v = q.dequeue(pid);
        if (v != -1) popped[static_cast<std::size_t>(pid)].push_back(v);
      }
    }
  });

  // Single-threaded drain: -1 now really means empty.
  std::vector<std::int64_t> drained;
  for (std::int64_t v = q.dequeue(0); v != -1; v = q.dequeue(0)) {
    drained.push_back(v);
  }

  std::vector<std::int64_t> all;
  for (const auto& per_pid : popped) {
    all.insert(all.end(), per_pid.begin(), per_pid.end());
  }
  all.insert(all.end(), drained.begin(), drained.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(n) * kPerThread);
  std::sort(all.begin(), all.end());
  for (int pid = 0; pid < n; ++pid) {
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(pid * kPerThread + i)],
                pid * 1000 + i);
    }
  }

  // A consumer's successive dequeues follow the linearization order, so the
  // values it took from any single producer must be ascending; the drain is
  // one more consumer sequence.
  const auto check_per_producer_order = [&](const std::vector<std::int64_t>& seq) {
    std::map<std::int64_t, std::int64_t> last_of;  // producer -> last value
    for (const std::int64_t v : seq) {
      const std::int64_t producer = v / 1000;
      const auto it = last_of.find(producer);
      if (it != last_of.end()) {
        EXPECT_LT(it->second, v);
      }
      last_of[producer] = v;
    }
  };
  for (const auto& per_pid : popped) check_per_producer_order(per_pid);
  check_per_producer_order(drained);
}

// ---------------------------------------------------------------------------
// Union-find: agreement with the sequential oracle.
// ---------------------------------------------------------------------------

// Oracle partition: unions are order-independent, so any completed run must
// agree with a sequential DSU over the same pairs.
struct Oracle {
  std::vector<std::int32_t> rep;
  explicit Oracle(int u) : rep(static_cast<std::size_t>(u)) {
    std::iota(rep.begin(), rep.end(), 0);
  }
  void unite(std::int32_t a, std::int32_t b) {
    const std::int32_t ra = rep[static_cast<std::size_t>(a)];
    const std::int32_t rb = rep[static_cast<std::size_t>(b)];
    if (ra == rb) return;
    const std::int32_t lo = std::min(ra, rb);
    const std::int32_t hi = std::max(ra, rb);
    for (auto& r : rep) {
      if (r == hi) r = lo;
    }
  }
  bool same(std::int32_t a, std::int32_t b) const {
    return rep[static_cast<std::size_t>(a)] ==
           rep[static_cast<std::size_t>(b)];
  }
  std::int64_t sets() const {
    std::int64_t out = 0;
    for (std::size_t i = 0; i < rep.size(); ++i) {
      if (rep[i] == static_cast<std::int32_t>(i)) ++out;
    }
    return out;
  }
};

TEST(UnionFind, ConcurrentUnionsMatchTheOracleMatrixAndOneReadNumSets) {
  const int n = 4;
  const int kUniverse = 8;
  const std::vector<std::pair<std::int32_t, std::int32_t>> pairs[4] = {
      {{0, 1}, {2, 3}},
      {{1, 2}},
      {{4, 5}, {5, 6}},
      {{6, 4}},
  };
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    SimUF uf(w, n, kUniverse);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (const auto& [a, b] : pairs[pid]) {
          co_await uf.unite(ctx, a, b);
        }
      });
    }
    sim::RandomScheduler sched(seed, /*stickiness=*/0.3);
    ASSERT_TRUE(w.run(sched).all_done);

    Oracle oracle(kUniverse);
    for (const auto& per_pid : pairs) {
      for (const auto& [a, b] : per_pid) oracle.unite(a, b);
    }
    for (std::int32_t a = 0; a < kUniverse; ++a) {
      std::int32_t root = -1;
      for (std::int32_t b = 0; b < kUniverse; ++b) {
        bool same = false;
        w.spawn(0, [&, a, b](Context ctx) -> ProcessTask {
          same = co_await uf.same_set(ctx, a, b);
        });
        w.run_solo(0);
        EXPECT_EQ(same, oracle.same(a, b))
            << "seed=" << seed << " a=" << a << " b=" << b;
      }
      w.spawn(0, [&, a](Context ctx) -> ProcessTask {
        root = co_await uf.find(ctx, a);
      });
      w.run_solo(0);
      // Min-wins linking: the representative is the set's minimum.
      EXPECT_EQ(root, oracle.rep[static_cast<std::size_t>(a)]) << "seed=" << seed;
    }

    std::int64_t sets = -1;
    const auto before = w.counts(1);
    w.spawn(1, [&](Context ctx) -> ProcessTask {
      sets = co_await uf.num_sets(ctx);
    });
    w.run_solo(1);
    EXPECT_EQ(sets, oracle.sets()) << "seed=" << seed;
    EXPECT_EQ(w.counts(1).total() - before.total(), 1u);  // ONE root read
  }
}

// ---------------------------------------------------------------------------
// Union-find: unite/find/same_set linearize against the exact sequential
// spec. num_sets rides along in the mix but is NOT recorded into the
// lincheck history (it has no exact sequential semantics — union_find.hpp);
// instead every concurrent observation is checked against its bound
// contract: final true count ≤ r ≤ U, and exact once quiescent.
// ---------------------------------------------------------------------------

TEST(UnionFind, RandomScheduleHistoriesAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const int n = 3;
    World w(n);
    SimUF uf(w, n, 8);
    HistoryRecorder<UFSpec> rec;
    std::vector<std::pair<std::int32_t, std::int32_t>> united;
    std::vector<std::int64_t> numset_obs;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        Rng rng(seed * 313 + static_cast<std::uint64_t>(pid));
        for (int i = 0; i < 3; ++i) {
          const auto a = static_cast<std::int32_t>(rng.below(8));
          const auto b = static_cast<std::int32_t>(rng.below(8));
          const double dice = rng.uniform();
          if (dice < 0.4) {
            const auto inv = UFSpec::unite(a, b);
            const auto tok = rec.begin(pid, inv);
            co_await uf.unite(ctx, a, b);
            rec.end(tok, 0);
            united.emplace_back(a, b);
          } else if (dice < 0.6) {
            const auto inv = UFSpec::find(a);
            const auto tok = rec.begin(pid, inv);
            const std::int32_t r = co_await uf.find(ctx, a);
            rec.end(tok, r);
          } else if (dice < 0.8) {
            const auto inv = UFSpec::same_set(a, b);
            const auto tok = rec.begin(pid, inv);
            const bool r = co_await uf.same_set(ctx, a, b);
            rec.end(tok, r ? 1 : 0);
          } else {
            numset_obs.push_back(co_await uf.num_sets(ctx));
          }
        }
      });
    }
    sim::RandomScheduler sched(seed, /*stickiness=*/0.2);
    ASSERT_TRUE(w.run(sched).all_done);
    EXPECT_TRUE(is_linearizable<UFSpec>(rec.take())) << "seed=" << seed;

    // Bound contract for the concurrent num_sets observations: the true
    // count only decreases over a run, and r never undercounts, so every
    // observation sits in [final true count, U].
    Oracle oracle(8);
    for (const auto& [a, b] : united) oracle.unite(a, b);
    for (const std::int64_t r : numset_obs) {
      EXPECT_GE(r, oracle.sets()) << "seed=" << seed;
      EXPECT_LE(r, 8) << "seed=" << seed;
    }
    // Quiescent (every unite completed, none crashed): exact.
    std::int64_t final_sets = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      final_sets = co_await uf.num_sets(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(final_sets, oracle.sets()) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Union-find: num_sets bound semantics, pinned. Pause a unite in the exact
// window between its link CAS and its link-counter farray write: same_set
// already observes the merge while num_sets still reports the pre-union
// count — the history an exact num_sets spec would reject, and precisely
// what the bound contract allows. Resuming the linker restores exactness;
// crashing it instead pins the permanent inflation (the counter leaf is
// SWMR, so nobody can ever complete the crashed linker's write).
// ---------------------------------------------------------------------------

TEST(UnionFind, NumSetsIsAnOvercountFreeBoundInTheLinkCounterWindow) {
  for (const bool crash_linker : {false, true}) {
    const int kUniverse = 4;
    World w(2);
    SimUF uf(w, 2, kUniverse);

    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await uf.unite(ctx, 0, 1);
    });
    // Solo unite(0,1) on a fresh forest: read parent[0], read parent[1],
    // link CAS — exactly 3 accesses. Grant exactly those; pid 0 is now
    // suspended AT its farray leaf write: linked, not yet counted.
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(w.step(0));

    const auto query = [&](std::int64_t& sets_out, bool& same_out) {
      w.spawn(1, [&](Context ctx) -> ProcessTask {
        same_out = co_await uf.same_set(ctx, 0, 1);
        sets_out = co_await uf.num_sets(ctx);
      });
      w.run_solo(1);
    };

    bool same = false;
    std::int64_t sets = -1;
    query(sets, same);
    EXPECT_TRUE(same);           // the link CAS is visible...
    EXPECT_EQ(sets, kUniverse);  // ...but not yet counted: bound, not truth.

    if (crash_linker) {
      w.crash(0);
      query(sets, same);
      EXPECT_TRUE(same);
      EXPECT_EQ(sets, kUniverse);  // inflated by one, permanently
    } else {
      ASSERT_TRUE(w.run_solo(0).all_done);  // leaf write + refresh walk
      query(sets, same);
      EXPECT_TRUE(same);
      EXPECT_EQ(sets, kUniverse - 1);  // quiescent again: exact
    }
  }
}

// ---------------------------------------------------------------------------
// Union-find: fault campaign. Not wait-free but BOUNDED (a unite retries at
// most once per rival successful link, of which there are < U), so a
// schedule-independent per-pid budget still exists and the certifier's
// completion check (1) plus these generous bounds certify it.
// ---------------------------------------------------------------------------

struct UnionFindCampaignExec final : Execution {
  UnionFindCampaignExec() : w(4), uf(w, 4, 6) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await uf.unite(ctx, 0, 1);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      co_await uf.unite(ctx, 1, 2);
    });
    w.spawn(2, [this](Context ctx) -> ProcessTask {
      co_await uf.unite(ctx, 3, 4);
    });
    w.spawn(3, [this](Context ctx) -> ProcessTask {
      root = co_await uf.find(ctx, 2);
      sets = co_await uf.num_sets(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimUF uf;
  std::int32_t root = -1;
  std::int64_t sets = -1;
};

TEST(UnionFindFault, CampaignStaysWithinTheBoundedRetryBudget) {
  std::uint64_t total_schedules = 0;
  for (const std::uint64_t base : fault_seeds::kUnionFindCampaignSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 60;
    opts.base_seed = base;
    opts.plan.never_crash = {3};  // the querier is the measured process
    const fault::CampaignResult result = fault::certify_wait_freedom(
        [] { return std::make_unique<UnionFindCampaignExec>(); },
        fault::step_bound_judge({{250, 120}, {250, 120}, {250, 120}, {20, 10}}),
        opts);
    EXPECT_TRUE(result.certified())
        << "base_seed=" << base << ": "
        << (result.violations.empty() ? "no schedules ran"
                                      : result.violations[0].what);
    total_schedules += result.schedules_run;
  }
  EXPECT_GE(total_schedules, 180u);
}

// ---------------------------------------------------------------------------
// Union-find: rt smoke.
// ---------------------------------------------------------------------------

TEST(UnionFindRt, ThreadsAgreeOnThePartition) {
  const int n = 4;
  UnionFindRT uf(n, 12);
  rt::parallel_run(n, [&](int pid) {
    uf.unite(pid, pid, pid + 4);
    uf.unite(pid, pid + 4, pid + 8);
  });
  Oracle oracle(12);
  for (int pid = 0; pid < n; ++pid) {
    oracle.unite(pid, pid + 4);
    oracle.unite(pid + 4, pid + 8);
  }
  for (std::int32_t a = 0; a < 12; ++a) {
    EXPECT_EQ(uf.find(0, a), oracle.rep[static_cast<std::size_t>(a)]);
    for (std::int32_t b = 0; b < 12; ++b) {
      EXPECT_EQ(uf.same_set(1, a, b), oracle.same(a, b));
    }
  }
  EXPECT_EQ(uf.num_sets(2), oracle.sets());
}

}  // namespace
}  // namespace apram
