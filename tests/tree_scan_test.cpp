// TreeScan — the f-array-style wait-free snapshot (update O(log n), scan
// O(1)) — exercised across every verification tier the repo has:
//
//   * exact solo step counts against the closed forms, n ∈ {2, 4, 8, 16},
//     and 0 accesses for an update its caller's completed updates cover
//   * the contention bound 1 + 8·⌈log2 n⌉ under randomized adversaries
//   * exhaustive schedule enumeration at n = 2 and a cheap n = 3 variant
//   * a seeded fault campaign (certify_wait_freedom) with per-pid bounds
//   * crash schedules injected at construction via World::Options, and by
//     hand with World::crash / World::revive
//   * lincheck of MaxLattice histories against MaxRegisterSpec
//
// The same TreeScan template instantiates against api::SimBackend here and
// api::RtBackend in the rt tests/benchmarks — one algorithm, two backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "fault/certifier.hpp"
#include "fault_seeds.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/specs.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "util/rng.hpp"

namespace apram::snapshot {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;

using MaxL = MaxLattice<std::int64_t>;
using SimTree = TreeScan<api::SimBackend, MaxL>;
using SimSnap = TreeSnapshot<api::SimBackend, int>;

// ---------------------------------------------------------------------------
// Closed forms
// ---------------------------------------------------------------------------

TEST(TreeScan, ClosedFormsMatchTheStepComplexityTable) {
  EXPECT_EQ(farray::farray_height(1), 0);
  EXPECT_EQ(farray::farray_height(2), 1);
  EXPECT_EQ(farray::farray_height(3), 2);
  EXPECT_EQ(farray::farray_height(4), 2);
  EXPECT_EQ(farray::farray_height(5), 3);
  EXPECT_EQ(farray::farray_height(8), 3);
  EXPECT_EQ(farray::farray_height(16), 4);
  EXPECT_EQ(farray::farray_write_solo_accesses(4), 9u);    // 1 + 4·2
  EXPECT_EQ(farray::farray_write_max_accesses(4), 17u);    // 1 + 8·2
  EXPECT_EQ(farray::farray_write_solo_accesses(16), 17u);  // 1 + 4·4
  EXPECT_EQ(farray::farray_read_accesses(), 1u);
}

// ---------------------------------------------------------------------------
// Sequential semantics (sim, solo runs)
// ---------------------------------------------------------------------------

TEST(TreeScan, SequentialUpdatesReachTheRoot) {
  for (int n : {1, 2, 3, 4, 5, 8}) {  // pow2 and padded shapes
    World w(n);
    SimTree tree(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await tree.update(ctx, 100 + pid);
      });
      w.run_solo(pid);
    }
    std::int64_t got = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await tree.scan(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(got, 100 + (n - 1)) << "n=" << n;
  }
}

TEST(TreeScan, SnapshotViewUnpacksPerProcessSlots) {
  const int n = 3;
  World w(n);
  SimSnap snap(w, n);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 7); });
  w.run_solo(0);
  w.spawn(2, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 9); });
  w.run_solo(2);
  SimSnap::View view;
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    view = co_await snap.scan(ctx);
  });
  w.run_solo(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 7);
  EXPECT_FALSE(view[1].has_value());
  EXPECT_EQ(view[2], 9);
}

// ---------------------------------------------------------------------------
// Step counts: solo updates hit the closed form exactly; scans cost one
// access at every n (the acceptance criterion for n ∈ {2, 4, 8, 16}).
// ---------------------------------------------------------------------------

// Runs update(v) solo as `pid` and returns its accesses.
obs::AccessCounts update_cost(World& w, SimTree& tree, int pid,
                              std::int64_t v) {
  const auto before = w.counts(pid);
  w.spawn(pid, [&tree, v](Context ctx) -> ProcessTask {
    co_await tree.update(ctx, v);
  });
  w.run_solo(pid);
  return w.counts(pid) - before;
}

// Runs one solo scan as `pid`.
std::int64_t solo_scan(World& w, SimTree& tree, int pid) {
  std::int64_t got = -1;
  w.spawn(pid, [&](Context ctx) -> ProcessTask {
    got = co_await tree.scan(ctx);
  });
  w.run_solo(pid);
  return got;
}

TEST(TreeScan, SoloUpdateMatchesClosedFormAndScanIsOneAccess) {
  std::set<std::uint64_t> scan_costs;
  for (int n : {2, 4, 8, 16}) {
    World w(n);
    SimTree tree(w, n);
    // ⊥ is covered on a fresh tree.
    EXPECT_EQ(update_cost(w, tree, 0, MaxL::bottom()).total(), 0u)
        << "n=" << n;

    const auto update = update_cost(w, tree, 0, 42);
    EXPECT_EQ(update.total(), farray::farray_write_solo_accesses(n))
        << "n=" << n;
    // The split: h reads of the node + 2h child reads, 1 leaf write + h CAS.
    const auto h = static_cast<std::uint64_t>(farray::farray_height(n));
    EXPECT_EQ(update.reads, 3 * h) << "n=" << n;
    EXPECT_EQ(update.writes, 1 + h) << "n=" << n;

    // Values the caller's completed update covers return without a shared
    // access; a larger one walks at the closed form again.
    for (const std::int64_t v : {42, 7}) {
      EXPECT_EQ(update_cost(w, tree, 0, v).total(), 0u)
          << "n=" << n << " v=" << v;
    }
    const auto raise = update_cost(w, tree, 0, 43);
    EXPECT_EQ(raise.reads, 3 * h) << "n=" << n;
    EXPECT_EQ(raise.writes, 1 + h) << "n=" << n;
    // The rule reads only the caller's own completed updates: pid 1's 100
    // is at the root, yet pid 0's 50 walks.
    EXPECT_EQ(update_cost(w, tree, 1, 100).total(),
              farray::farray_write_solo_accesses(n))
        << "n=" << n;
    EXPECT_EQ(update_cost(w, tree, 0, 50).total(),
              farray::farray_write_solo_accesses(n))
        << "n=" << n;

    const auto before_scan = w.counts(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      (void)co_await tree.scan(ctx);
    });
    w.run_solo(0);
    const auto after_scan = w.counts(0);
    const std::uint64_t scan_cost = after_scan.total() - before_scan.total();
    EXPECT_EQ(scan_cost, farray::farray_read_accesses()) << "n=" << n;
    scan_costs.insert(scan_cost);
  }
  // Scan cost is independent of n: one distinct value across all sizes.
  EXPECT_EQ(scan_costs.size(), 1u);
}

TEST(TreeScan, ContendedUpdatesStayWithinTheDoubleRefreshBound) {
  // The helping lemma caps every update at 1 + 8·height() accesses no matter
  // the schedule; hammer it with sticky and fine-grained random adversaries.
  for (int n : {4, 8}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      for (const double sticky : {0.0, 0.6}) {
        World w(n);
        SimTree tree(w, n);
        const int kOps = 4;
        for (int pid = 0; pid < n; ++pid) {
          w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
            for (int i = 0; i < kOps; ++i) {
              co_await tree.update(ctx, pid * 100 + i);
            }
          });
        }
        sim::RandomScheduler rs(seed, sticky);
        ASSERT_TRUE(w.run(rs).all_done);
        for (int pid = 0; pid < n; ++pid) {
          EXPECT_LE(w.counts(pid).total(),
                    kOps * farray::farray_write_max_accesses(n))
              << "n=" << n << " pid=" << pid << " seed=" << seed;
        }
        std::int64_t got = -1;
        w.spawn(0, [&](Context ctx) -> ProcessTask {
          got = co_await tree.scan(ctx);
        });
        w.run_solo(0);
        EXPECT_EQ(got, (n - 1) * 100 + (kOps - 1));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized comparability: tagged root reads form a chain (Lemma 32 shape).
// ---------------------------------------------------------------------------

TEST(TreeScan, TaggedScansArePairwiseComparableUnderRandomSchedules) {
  using L = TaggedVectorLattice<int>;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const int n = 4;
    World w(n);
    SimSnap snap(w, n);
    std::vector<L::Value> views;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await snap.update(ctx, pid * 10);
        views.push_back(co_await snap.tree().scan(ctx));
        co_await snap.update(ctx, pid * 10 + 1);
        views.push_back(co_await snap.tree().scan(ctx));
      });
    }
    sim::RandomScheduler rs(seed, /*stickiness=*/0.3);
    ASSERT_TRUE(w.run(rs).all_done);
    for (std::size_t i = 0; i < views.size(); ++i) {
      for (std::size_t j = i + 1; j < views.size(); ++j) {
        EXPECT_TRUE(L::leq(views[i], views[j]) || L::leq(views[j], views[i]))
            << "incomparable root reads, seed=" << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exhaustive enumeration — proofs-by-enumeration at small sizes.
// ---------------------------------------------------------------------------

struct TreePairExec final : Execution {
  using L = TaggedVectorLattice<int>;
  TreePairExec() : w(2), snap(w, 2) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await snap.update(ctx, 10);
      views[0] = co_await snap.tree().scan(ctx);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      co_await snap.update(ctx, 20);
      views[1] = co_await snap.tree().scan(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimSnap snap;
  L::Value views[2];
};

TEST(TreeScanExplore, ComparabilityAndOwnVisibilityOnEverySchedule) {
  using L = TreePairExec::L;
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<TreePairExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& x = static_cast<TreePairExec&>(e);
        // Own contribution is at the root once update() returns (helping
        // lemma), and the two root reads are always comparable.
        for (int pid = 0; pid < 2; ++pid) {
          const auto own = L::singleton(2, static_cast<std::size_t>(pid), 1,
                                        10 * (pid + 1));
          ASSERT_TRUE(L::leq(own, x.views[pid])) << "pid " << pid;
        }
        ASSERT_TRUE(L::leq(x.views[0], x.views[1]) ||
                    L::leq(x.views[1], x.views[0]));
      });
  EXPECT_GT(stats.executions, 1000u);  // a real search, not a smoke test
}

// Self-covered updates on every schedule: pid 0's update(3) follows its
// update(5) and makes no access, wherever pid 1's update(4) runs.
struct TreeCoverExec final : Execution {
  TreeCoverExec() : w(2), tree(w, 2) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await tree.update(ctx, 5);
      co_await tree.update(ctx, 3);
      scans[0] = co_await tree.scan(ctx);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      co_await tree.update(ctx, 4);
      scans[1] = co_await tree.scan(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimTree tree;
  std::int64_t scans[2] = {-1, -1};
};

TEST(TreeScanExplore, SelfCoveredUpdatesKeepScansExactOnEverySchedule) {
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<TreeCoverExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        auto& x = static_cast<TreeCoverExec&>(e);
        ASSERT_GE(x.scans[0], 5);  // each scan covers its own largest write
        ASSERT_GE(x.scans[1], 4);
        ASSERT_TRUE(MaxL::leq(x.scans[0], x.scans[1]) ||
                    MaxL::leq(x.scans[1], x.scans[0]));
        ASSERT_EQ(solo_scan(x.w, x.tree, 0), 5);
      });
  EXPECT_GT(stats.executions, 100u);
}

// n = 3 exercises the padded tree (m = 4, one free padding leaf). One
// updater and two scanners keep the schedule space small: the solo update
// is exactly 9 accesses (no CAS contention from readers), so the space is
// 12!/(9!·2!·1!) = 660 interleavings.
struct TreePaddedExec final : Execution {
  TreePaddedExec() : w(3), tree(w, 3) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await tree.update(ctx, 10);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      scans[0] = co_await tree.scan(ctx);
      scans[1] = co_await tree.scan(ctx);
    });
    w.spawn(2, [this](Context ctx) -> ProcessTask {
      scans[2] = co_await tree.scan(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimTree tree;
  std::int64_t scans[3] = {-1, -1, -1};
};

TEST(TreeScanExplore, PaddedTreeScansAreMonotoneOnEverySchedule) {
  const std::int64_t bot = MaxL::bottom();
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<TreePaddedExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& x = static_cast<TreePaddedExec&>(e);
        for (const std::int64_t s : {x.scans[0], x.scans[1], x.scans[2]}) {
          ASSERT_TRUE(s == bot || s == 10);  // nothing else ever at the root
        }
        ASSERT_LE(x.scans[0], x.scans[1]);  // same-process scans are monotone
      });
  EXPECT_EQ(stats.executions, 660u);
}

// ---------------------------------------------------------------------------
// Lincheck: a MaxLattice TreeScan is a max register. Values drawn from
// {0..3} make most updates self-covered; a scan's ⊥ reads as the spec's 0.
// ---------------------------------------------------------------------------

TEST(TreeScan, MaxLatticeHistoriesAreLinearizableAsAMaxRegister) {
  using S = MaxRegisterSpec;
  for (int n : {2, 3, 4}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      World w(n);
      SimTree tree(w, n);
      HistoryRecorder<S> rec;
      for (int pid = 0; pid < n; ++pid) {
        w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
          Rng rng(seed * 131 + static_cast<std::uint64_t>(pid));
          for (int i = 0; i < 6; ++i) {
            if (rng.chance(0.6)) {
              const std::int64_t v = rng.range(0, 3);
              const auto tok = rec.begin(pid, S::write_max(v));
              co_await tree.update(ctx, v);
              rec.end(tok, 0);
            } else {
              const auto tok = rec.begin(pid, S::read());
              const std::int64_t got = co_await tree.scan(ctx);
              rec.end(tok, got == MaxL::bottom() ? 0 : got);
            }
          }
        });
      }
      sim::RandomScheduler sched(seed, /*stickiness=*/0.3);
      ASSERT_TRUE(w.run(sched).all_done);
      EXPECT_TRUE(is_linearizable<S>(rec.take()))
          << "n=" << n << " seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault campaign: wait-freedom certification with exact per-pid bounds.
// ---------------------------------------------------------------------------

// n = 4 (height 2): three updaters (one update each: ≤ 6h = 12 reads,
// ≤ 1 + 2h = 5 writes) and a scanner (two scans: 2 reads, 0 writes).
struct TreeCampaignExec final : Execution {
  TreeCampaignExec() : w(4), tree(w, 4) {
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await tree.update(ctx, 100 + pid);
      });
    }
    w.spawn(3, [this](Context ctx) -> ProcessTask {
      scans[0] = co_await tree.scan(ctx);
      scans[1] = co_await tree.scan(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimTree tree;
  std::int64_t scans[2] = {-1, -1};
};

TEST(TreeScanFault, CampaignCertifiesLogarithmicStepBounds) {
  std::uint64_t total_schedules = 0;
  std::uint64_t total_faults = 0;
  for (const std::uint64_t base : fault_seeds::kCampaignBaseSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 60;
    opts.base_seed = base;
    opts.plan.never_crash = {3};  // the scanner is the measured process
    const fault::CampaignResult result = fault::certify_wait_freedom(
        [] { return std::make_unique<TreeCampaignExec>(); },
        fault::step_bound_judge({{12, 5}, {12, 5}, {12, 5}, {2, 0}}), opts);
    EXPECT_TRUE(result.certified())
        << "base_seed=" << base << ": "
        << (result.violations.empty() ? "no schedules ran"
                                      : result.violations[0].what);
    total_schedules += result.schedules_run;
    total_faults += result.crashes_fired + result.stall_deflections +
                    result.burst_grants;
  }
  EXPECT_GE(total_schedules, 300u);
  EXPECT_GT(total_faults, 0u);  // an adversary that never bites proves little
}

// ---------------------------------------------------------------------------
// Crash schedules via World::Options: a crashed updater's published leaf is
// recovered by its sibling's refresh (the helping lemma, crash flavour).
// ---------------------------------------------------------------------------

TEST(TreeScanFault, SiblingRefreshRecoversACrashedUpdatersLeaf) {
  const int n = 4;
  // pid 1 dies right after its leaf write (access 1 of its update).
  World w(n, {.crashes = {{.pid = 1, .at_access = 1}}});
  SimTree tree(w, n);
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await tree.update(ctx, 999);
  });
  w.run_solo(1);  // stops at the crash; 999 sits in leaf 1 only
  std::int64_t before = -1;
  w.spawn(3, [&](Context ctx) -> ProcessTask {
    before = co_await tree.scan(ctx);
  });
  w.run_solo(3);
  EXPECT_EQ(before, MaxL::bottom());  // not yet propagated: crash was real

  // pid 0 shares the level-1 parent with pid 1, so its refresh reads the
  // orphaned leaf and carries 999 to the root.
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await tree.update(ctx, 100);
  });
  w.run_solo(0);
  std::int64_t after = -1;
  w.spawn(3, [&](Context ctx) -> ProcessTask {
    after = co_await tree.scan(ctx);
  });
  w.run_solo(3);
  EXPECT_EQ(after, 999);
}

// A process brought back after a crash between its leaf write and its walk
// has 999 in its leaf and its mirror, but the root never saw it. Its next
// update must walk: a rule keyed on the leaf mirror would return at once
// and 500 would be missing from every later scan.
TEST(TreeScanFault, RevivedUpdaterWalksPastItsOrphanedLeaf) {
  for (int n : {2, 4, 8}) {
    World w(n);
    SimTree tree(w, n);
    w.spawn(1, [&](Context ctx) -> ProcessTask {
      co_await tree.update(ctx, 999);
    });
    ASSERT_TRUE(w.step(1));  // the leaf write
    w.crash(1);
    EXPECT_EQ(solo_scan(w, tree, 0), MaxL::bottom()) << "n=" << n;

    const auto before = w.counts(1);
    w.revive(1, [&](Context ctx) -> ProcessTask {
      co_await tree.update(ctx, 500);
    });
    ASSERT_TRUE(w.run_solo(1).all_done) << "n=" << n;
    EXPECT_EQ((w.counts(1) - before).total(),
              farray::farray_write_solo_accesses(n))
        << "n=" << n;
    EXPECT_EQ(solo_scan(w, tree, 0), 999) << "n=" << n;
  }
}

// The one behavioural change of the self-cover rule: a self-covered update
// no longer carries a crashed sibling's orphaned leaf to the root (the
// crashed update may stay unlinearized). The next update that walks does.
TEST(TreeScanFault, SelfCoveredUpdateLeavesAnOrphanedLeafBehind) {
  const int n = 4;
  World w(n);
  SimTree tree(w, n);
  EXPECT_EQ(update_cost(w, tree, 0, 200).total(),
            farray::farray_write_solo_accesses(n));
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    co_await tree.update(ctx, 999);
  });
  ASSERT_TRUE(w.step(1));  // 999 sits in leaf 1 only
  w.crash(1);

  EXPECT_EQ(update_cost(w, tree, 0, 150).total(), 0u);
  EXPECT_EQ(solo_scan(w, tree, 3), 200);
  EXPECT_EQ(update_cost(w, tree, 0, 300).total(),
            farray::farray_write_solo_accesses(n));
  EXPECT_EQ(solo_scan(w, tree, 3), 999);  // pid 0's walk read leaf 1
}

TEST(TreeScan, RtWrappersMatchSequentialSemantics) {
  TreeSnapshotRT<int> snap(5);  // padded: m = 8
  snap.update(0, 1);
  snap.update(4, 9);
  const auto view = snap.scan(2);
  ASSERT_EQ(view.size(), 5u);
  EXPECT_EQ(view[0], 1);
  EXPECT_FALSE(view[1].has_value());
  EXPECT_EQ(view[4], 9);

  TreeScanRT<MaxL> solo(1);  // degenerate tree: the leaf is the root
  EXPECT_EQ(solo.scan(0), MaxL::bottom());
  solo.update(0, 3);
  EXPECT_EQ(solo.update_and_scan(0, 7), 7);
  EXPECT_EQ(solo.scan(0), 7);
}

}  // namespace
}  // namespace apram::snapshot
