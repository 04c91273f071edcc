// FArray — the generalized stamped-CAS aggregation tree — exercised over
// NON-lattice combiners (the whole point of the generalization):
//
//   * exact solo step counts against the closed forms, n ∈ {2, 4, 8, 16},
//     under SumCombiner (not idempotent — a lattice would double-count)
//   * fold order: MaxSuffixSumCombiner is associative but NOT commutative,
//     so the root must equal the strict left-to-right pid-order fold
//   * the contention bound 1 + 8·⌈log2 n⌉ under randomized adversaries
//   * exhaustive schedule enumeration at n = 2 (own-write visibility — the
//     helping lemma without any lattice order to lean on)
//
// snapshot::TreeScan (tree_scan_test.cpp) covers the lattice instantiation
// of the same machinery; this file is the non-lattice half of the contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "sim/explore.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

namespace apram::farray {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;

using Sum = SumCombiner<std::int64_t>;
using SimSum = FArray<api::SimBackend, std::int64_t, Sum>;
using Suffix = MaxSuffixSumCombiner;
using SimSuffix = FArray<api::SimBackend, Suffix::Value, Suffix>;

// ---------------------------------------------------------------------------
// Combiner laws on concrete instances (the part the concept cannot state).
// ---------------------------------------------------------------------------

TEST(Combiner, LawsHoldOnConcreteInstances) {
  // Associativity + unit for the non-commutative combiner, on values where
  // operand order matters.
  const Suffix::Value a{5, 5};
  const Suffix::Value b{-3, 0};
  const Suffix::Value c{4, 4};
  const auto lhs = Suffix::combine(Suffix::combine(a, b), c);
  const auto rhs = Suffix::combine(a, Suffix::combine(b, c));
  EXPECT_EQ(lhs.total, rhs.total);
  EXPECT_EQ(lhs.best_suffix, rhs.best_suffix);
  const auto left_unit = Suffix::combine(Suffix::identity(), a);
  const auto right_unit = Suffix::combine(a, Suffix::identity());
  EXPECT_EQ(left_unit.total, a.total);
  EXPECT_EQ(left_unit.best_suffix, a.best_suffix);
  EXPECT_EQ(right_unit.total, a.total);
  EXPECT_EQ(right_unit.best_suffix, a.best_suffix);
  // And NOT commutative: swapping operands changes the answer (a then b ends
  // on the −3, so the best suffix is 5−3 = 2; b then a ends on the 5).
  EXPECT_EQ(Suffix::combine(a, b).best_suffix, 2);
  EXPECT_EQ(Suffix::combine(b, a).best_suffix, 5);

  EXPECT_EQ(Sum::combine(Sum::identity(), 7), 7);
  EXPECT_EQ(Sum::combine(3, 4), 7);
  static_assert(Combiner<Sum>);
  static_assert(Combiner<Suffix>);
  static_assert(Combiner<JoinCombiner<MaxLattice<std::int64_t>>>);
}

TEST(FArray, ClosedFormsMatchTheTreeScanTable) {
  EXPECT_EQ(farray_height(1), 0);
  EXPECT_EQ(farray_height(2), 1);
  EXPECT_EQ(farray_height(3), 2);
  EXPECT_EQ(farray_height(16), 4);
  EXPECT_EQ(farray_write_solo_accesses(4), 9u);   // 1 + 4·2
  EXPECT_EQ(farray_write_max_accesses(4), 17u);   // 1 + 8·2
  EXPECT_EQ(farray_write_solo_accesses(16), 17u); // 1 + 4·4
  EXPECT_EQ(farray_read_accesses(), 1u);
}

// ---------------------------------------------------------------------------
// Sequential semantics: the root is the pid-order fold of the leaves.
// ---------------------------------------------------------------------------

TEST(FArray, RootIsTheSumOfTheLeaves) {
  for (int n : {1, 2, 3, 4, 5, 8}) {  // pow2 and padded shapes
    World w(n);
    SimSum fa(w, n);
    std::int64_t expected = 0;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await fa.write(ctx, 100 + pid);
      });
      w.run_solo(pid);
      expected += 100 + pid;
    }
    std::int64_t got = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await fa.read_f(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(got, expected) << "n=" << n;

    // Overwriting a leaf replaces its contribution (writes are writes, not
    // joins — the non-idempotent combiner would expose double-counting).
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, 1);
    });
    w.run_solo(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      got = co_await fa.read_f(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(got, expected - 100 + 1) << "n=" << n;
  }
}

TEST(FArray, NonCommutativeCombineFoldsInPidOrder) {
  const std::vector<std::int64_t> xs = {5, -3, 4, -2};
  const int n = static_cast<int>(xs.size());
  const auto leaf_value = [](std::int64_t x) {
    return Suffix::Value{x, x > 0 ? x : 0};
  };

  World w(n);
  SimSuffix fa(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, leaf_value(xs[static_cast<std::size_t>(pid)]));
    });
    w.run_solo(pid);
  }
  Suffix::Value got;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    got = co_await fa.read_f(ctx);
  });
  w.run_solo(0);

  // Reference: strict left-to-right fold in pid order...
  Suffix::Value forward = Suffix::identity();
  Suffix::Value backward = Suffix::identity();
  for (int i = 0; i < n; ++i) {
    forward = Suffix::combine(forward, leaf_value(xs[static_cast<std::size_t>(i)]));
    backward = Suffix::combine(
        backward, leaf_value(xs[static_cast<std::size_t>(n - 1 - i)]));
  }
  EXPECT_EQ(got.total, forward.total);
  EXPECT_EQ(got.best_suffix, forward.best_suffix);
  // ...and the reversed fold differs on this input, so the equality above
  // actually pins the operand order rather than passing vacuously.
  ASSERT_NE(forward.best_suffix, backward.best_suffix);
}

// ---------------------------------------------------------------------------
// Step counts: exact solo closed forms at n ∈ {2, 4, 8, 16} under a
// non-lattice combine, and the contention bound under random adversaries.
// ---------------------------------------------------------------------------

TEST(FArray, SoloWriteMatchesClosedFormAndReadIsOneAccess) {
  std::set<std::uint64_t> read_costs;
  for (int n : {2, 4, 8, 16}) {
    World w(n);
    SimSum fa(w, n);

    const auto before_write = w.counts(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, 42);
    });
    w.run_solo(0);
    const auto after_write = w.counts(0);
    EXPECT_EQ(after_write.total() - before_write.total(),
              farray_write_solo_accesses(n))
        << "n=" << n;
    // The split: h node reads + 2h child reads, 1 leaf write + h CAS.
    const auto h = static_cast<std::uint64_t>(farray_height(n));
    EXPECT_EQ(after_write.reads - before_write.reads, 3 * h) << "n=" << n;
    EXPECT_EQ(after_write.writes - before_write.writes, 1 + h) << "n=" << n;

    const auto before_read = w.counts(0);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      (void)co_await fa.read_f(ctx);
    });
    w.run_solo(0);
    const auto after_read = w.counts(0);
    const std::uint64_t read_cost = after_read.total() - before_read.total();
    EXPECT_EQ(read_cost, farray_read_accesses()) << "n=" << n;
    read_costs.insert(read_cost);
  }
  EXPECT_EQ(read_costs.size(), 1u);  // independent of n
}

// The same check under the non-commutative combiner: the access sequence is
// combiner-independent, so the closed forms hold for ANY refresher.
TEST(FArray, SoloWriteCostIsCombinerIndependent) {
  for (int n : {2, 4, 8, 16}) {
    World w(n);
    SimSuffix fa(w, n);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, Suffix::Value{3, 3});
    });
    w.run_solo(0);
    EXPECT_EQ(w.counts(0).total(), farray_write_solo_accesses(n)) << "n=" << n;
  }
}

TEST(FArray, ContendedWritesStayWithinTheDoubleRefreshBound) {
  for (int n : {4, 8}) {
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
      for (const double sticky : {0.0, 0.6}) {
        World w(n);
        SimSum fa(w, n);
        const int kOps = 4;
        for (int pid = 0; pid < n; ++pid) {
          w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
            for (int i = 0; i < kOps; ++i) {
              co_await fa.write(ctx, pid * 100 + i);
            }
          });
        }
        sim::RandomScheduler rs(seed, sticky);
        ASSERT_TRUE(w.run(rs).all_done);
        for (int pid = 0; pid < n; ++pid) {
          EXPECT_LE(w.counts(pid).total(),
                    kOps * farray_write_max_accesses(n))
              << "n=" << n << " pid=" << pid << " seed=" << seed;
        }
        // Every leaf ends at its last write; the root is their sum.
        std::int64_t got = -1;
        w.spawn(0, [&](Context ctx) -> ProcessTask {
          got = co_await fa.read_f(ctx);
        });
        w.run_solo(0);
        std::int64_t expected = 0;
        for (int pid = 0; pid < n; ++pid) expected += pid * 100 + (kOps - 1);
        EXPECT_EQ(got, expected);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exhaustive enumeration at n = 2: own-write visibility on EVERY schedule.
// With a sum there is no lattice order to argue through — the helping lemma
// alone must deliver the completed write to the root.
// ---------------------------------------------------------------------------

struct SumPairExec final : Execution {
  SumPairExec() : w(2), fa(w, 2) {
    w.spawn(0, [this](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, 3);
      roots[0] = co_await fa.read_f(ctx);
    });
    w.spawn(1, [this](Context ctx) -> ProcessTask {
      co_await fa.write(ctx, 5);
      roots[1] = co_await fa.read_f(ctx);
    });
  }
  World& world() override { return w; }
  World w;
  SimSum fa;
  std::int64_t roots[2] = {-1, -1};
};

TEST(FArrayExplore, OwnWriteIsInTheRootOnEverySchedule) {
  const auto stats = sim::explore_all_schedules(
      [] { return std::make_unique<SumPairExec>(); },
      [&](Execution& e, const std::vector<int>&) {
        const auto& x = static_cast<SumPairExec&>(e);
        // A root read after one's own write includes that write (helping
        // lemma) and is one of the two reachable sums — never a torn or
        // double-counted value.
        ASSERT_TRUE(x.roots[0] == 3 || x.roots[0] == 8) << x.roots[0];
        ASSERT_TRUE(x.roots[1] == 5 || x.roots[1] == 8) << x.roots[1];
      });
  EXPECT_GT(stats.executions, 400u);  // C(12,6) = 924: a real search
}

TEST(FArray, RtSumMatchesSequentialSemantics) {
  const int n = 5;  // padded: m = 8
  api::RtBackend::Mem mem(n);
  FArray<api::RtBackend, std::int64_t, Sum> fa(mem, n);
  for (int p = 0; p < n; ++p) {
    fa.write(api::RtBackend::Ctx{p}, p + 1).get();
  }
  EXPECT_EQ(fa.read_f(api::RtBackend::Ctx{0}).get(), 1 + 2 + 3 + 4 + 5);
  fa.write(api::RtBackend::Ctx{2}, 30).get();
  EXPECT_EQ(fa.read_f(api::RtBackend::Ctx{1}).get(), 1 + 2 + 30 + 4 + 5);

  api::RtBackend::Mem solo_mem(1);
  FArray<api::RtBackend, std::int64_t, Sum> solo(solo_mem, 1);
  EXPECT_EQ(solo.read_f(api::RtBackend::Ctx{0}).get(), 0);  // identity
  solo.write(api::RtBackend::Ctx{0}, 7).get();
  EXPECT_EQ(solo.read_f(api::RtBackend::Ctx{0}).get(), 7);
}

}  // namespace
}  // namespace apram::farray
