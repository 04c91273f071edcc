// Exhaustive schedule exploration: proofs-by-enumeration at small sizes.
//
// Where the randomized suites sample schedules, these tests enumerate EVERY
// interleaving of small programs and assert the paper's properties on each:
// Lemma 32 comparability for the scan, linearizability invariants for the
// counter, commit-adopt coherence, and the lost-update behaviour of naive
// registers (as a sanity check that the explorer actually visits the bad
// interleavings).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "objects/adopt_commit.hpp"
#include "objects/fast_counter.hpp"
#include "sim/explore.hpp"
#include "snapshot/atomic_snapshot.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::Execution;
using sim::ExecutionFactory;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// Explorer mechanics
// ---------------------------------------------------------------------------

// Two processes, two steps each: the interleavings are the 4!/(2!2!) = 6
// shuffles of AABB.
struct TinyExec final : Execution {
  TinyExec() : w(2) {
    reg = &w.make<int>(0);
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this](Context ctx) -> ProcessTask {
        co_await ctx.read(*reg);
        co_await ctx.read(*reg);
      });
    }
  }
  World& world() override { return w; }
  World w;
  sim::Register<int>* reg;
};

TEST(Explore, CountsAllInterleavings) {
  std::set<std::vector<int>> schedules;
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<TinyExec>(); },
      [&](Execution&, const std::vector<int>& schedule) {
        schedules.insert(schedule);
      });
  EXPECT_EQ(stats.executions, 6u);
  EXPECT_EQ(schedules.size(), 6u);
  EXPECT_EQ(stats.max_depth, 4u);
}

// The classic lost-update program: the explorer must find both outcomes.
struct LostUpdateExec final : Execution {
  LostUpdateExec() : w(2) {
    reg = &w.make<int>(0);
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this](Context ctx) -> ProcessTask {
        const int v = co_await ctx.read(*reg);
        co_await ctx.write(*reg, v + 1);
      });
    }
  }
  World& world() override { return w; }
  World w;
  sim::Register<int>* reg;
};

TEST(Explore, FindsBothLostUpdateOutcomes) {
  std::set<int> outcomes;
  sim::explore_all_schedules(
      [] { return std::make_unique<LostUpdateExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        outcomes.insert(static_cast<LostUpdateExec&>(e).reg->peek());
      });
  EXPECT_EQ(outcomes, (std::set<int>{1, 2}));
}

// ---------------------------------------------------------------------------
// Lemma 32 comparability — every schedule, two processes.
// ---------------------------------------------------------------------------

struct SnapExec final : Execution {
  using L = TaggedVectorLattice<int>;
  SnapExec() : w(2), snap(w, 2) {
    // P0: update then tagged scan; P1: tagged scan then update then scan.
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await snap.update(ctx, 10);
      views.push_back(co_await snap.scan_tagged(ctx));
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      views.push_back(co_await snap.scan_tagged(ctx));
      co_await snap.update(ctx, 20);
      views.push_back(co_await snap.scan_tagged(ctx));
    });
  }
  World& world() override { return w; }
  World w;
  AtomicSnapshotSim<int> snap;
  std::vector<L::Value> views;
};

TEST(Explore, ScanComparabilityHoldsOnEverySchedule) {
  using L = SnapExec::L;
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<SnapExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& views = static_cast<SnapExec&>(e).views;
        for (std::size_t i = 0; i < views.size(); ++i) {
          for (std::size_t j = i + 1; j < views.size(); ++j) {
            ASSERT_TRUE(L::leq(views[i], views[j]) ||
                        L::leq(views[j], views[i]))
                << "incomparable scans found by exhaustive exploration";
          }
        }
      });
  // Sanity: this is a real search, thousands of executions.
  EXPECT_GT(stats.executions, 1000u);
}

// ---------------------------------------------------------------------------
// FastCounter conservation — every schedule.
// ---------------------------------------------------------------------------

struct CounterExec final : Execution {
  CounterExec() : w(2), ctr(w, 2) {
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await ctr.inc(ctx, 1);
        reads[static_cast<std::size_t>(pid)] = co_await ctr.read(ctx);
      });
    }
  }
  World& world() override { return w; }
  World w;
  FastCounterSim ctr;
  std::int64_t reads[2] = {-1, -1};
};

TEST(Explore, FastCounterReadsAlwaysBetweenOwnAndTotal) {
  sim::explore_all_schedules(
      [] { return std::make_unique<CounterExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& ce = static_cast<CounterExec&>(e);
        for (int pid = 0; pid < 2; ++pid) {
          ASSERT_GE(ce.reads[pid], 1);  // own increment visible
          ASSERT_LE(ce.reads[pid], 2);  // no phantom increments
        }
      });
}

// ---------------------------------------------------------------------------
// Commit-adopt coherence (CA1–CA3) — every schedule, two processes.
// ---------------------------------------------------------------------------

struct CaExec final : Execution {
  CaExec(std::int64_t v0, std::int64_t v1) : w(2), ca(w, 2) {
    const std::int64_t inputs[2] = {v0, v1};
    for (int pid = 0; pid < 2; ++pid) {
      const std::int64_t v = inputs[pid];
      w.spawn(pid, [this, pid, v](Context ctx) -> ProcessTask {
        results[static_cast<std::size_t>(pid)] = co_await ca.propose(ctx, v);
      });
    }
  }
  World& world() override { return w; }
  World w;
  AdoptCommitSim ca;
  CaResult results[2];
};

TEST(Explore, CommitAdoptCoherenceOnEverySchedule) {
  // Differing proposals: CA1 (validity) + CA2 (coherence) on every schedule.
  sim::explore_all_schedules(
      [] { return std::make_unique<CaExec>(5, 9); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& r = static_cast<CaExec&>(e).results;
        for (int pid = 0; pid < 2; ++pid) {
          ASSERT_TRUE(r[pid].value == 5 || r[pid].value == 9);  // CA1
        }
        const bool committed0 = r[0].verdict == CaVerdict::kCommit;
        const bool committed1 = r[1].verdict == CaVerdict::kCommit;
        if (committed0 || committed1) {
          ASSERT_EQ(r[0].value, r[1].value)  // CA2
              << "commit without coherence";
        }
      });
}

TEST(Explore, CommitAdoptConvergenceOnEverySchedule) {
  // Equal proposals: CA3 — everyone commits that value, on every schedule.
  sim::explore_all_schedules(
      [] { return std::make_unique<CaExec>(7, 7); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& r = static_cast<CaExec&>(e).results;
        for (int pid = 0; pid < 2; ++pid) {
          ASSERT_EQ(r[pid].verdict, CaVerdict::kCommit);
          ASSERT_EQ(r[pid].value, 7);
        }
      });
}

}  // namespace
}  // namespace apram
