// Tests for the extension modules: pseudo read-modify-write objects
// (Anderson & Grošelj, §2), lattice agreement (Attiya–Herlihy–Rachman, §2),
// the vector-clock lattice, and the end-to-end linearizability of the
// snapshot object itself (checked against a sequential snapshot spec).
#include <gtest/gtest.h>

#include <vector>

#include "algebra/check.hpp"
#include "lincheck/checker.hpp"
#include "objects/pseudo_rmw.hpp"
#include "objects/specs.hpp"
#include "sim/scheduler.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_agreement.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// Pseudo read-modify-write
// ---------------------------------------------------------------------------

// The PRMW contract: the family's functions must commute semantically.
template <class F>
void check_family_commutes(Rng& rng, const std::vector<typename F::Fn>& fns) {
  for (int t = 0; t < 200; ++t) {
    auto s = F::initial();
    for (std::uint64_t i = 0, len = rng.below(4); i < len; ++i) {
      s = F::apply_fn(s, fns[rng.below(fns.size())]);
    }
    const auto& f = fns[rng.below(fns.size())];
    const auto& g = fns[rng.below(fns.size())];
    EXPECT_EQ(F::apply_fn(F::apply_fn(s, f), g),
              F::apply_fn(F::apply_fn(s, g), f));
  }
}

TEST(PseudoRmw, FamiliesCommute) {
  Rng rng(901);
  check_family_commutes<AddFamily>(rng, {1, -3, 7, 100});
  check_family_commutes<ModMulFamily>(rng, {2, 3, 5, 999983});
  check_family_commutes<OrFamily>(rng, {0x1, 0xF0, 0x8000, 0xDEAD});
}

TEST(PseudoRmw, SpecSatisfiesProperty1) {
  using Spec = PrmwSpec<ModMulFamily>;
  Rng rng(902);
  for (int t = 0; t < 300; ++t) {
    auto s = ModMulFamily::initial();
    for (std::uint64_t i = 0, len = rng.below(4); i < len; ++i) {
      s = ModMulFamily::apply_fn(s, rng.range(2, 50));
    }
    const auto p = rng.chance(0.5) ? Spec::apply_fn(rng.range(2, 50))
                                   : Spec::read();
    const auto q = rng.chance(0.5) ? Spec::apply_fn(rng.range(2, 50))
                                   : Spec::read();
    const auto v = validate_pair_at<Spec>(s, p, q);
    EXPECT_TRUE(v.declared_consistent);
    EXPECT_TRUE(v.property1);
  }
}

TEST(PseudoRmw, SequentialModMul) {
  World w(1);
  PseudoRmwSim<ModMulFamily> obj(w, 1);
  std::int64_t v = 0;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await obj.apply(ctx, 6);
    co_await obj.apply(ctx, 7);
    v = co_await obj.read(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(v, 42);
}

TEST(PseudoRmw, ConcurrentAppliesAllTakeEffectExactlyOnce) {
  // Multiplication mod p is cancellative, so the final value certifies that
  // every apply took effect exactly once, in some order.
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    World w(n);
    PseudoRmwSim<ModMulFamily> obj(w, n);
    const std::int64_t multipliers[n] = {2, 3, 5};
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await obj.apply(ctx, multipliers[pid]);
        co_await obj.apply(ctx, multipliers[pid]);
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);

    World w2(1);
    PseudoRmwSim<ModMulFamily> probe(w2, 1);
    (void)probe;  // read via a fresh single-process world is not possible —
    // instead re-spawn a reader in the same world.
    std::int64_t v = 0;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      v = co_await obj.read(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(v, 2LL * 2 * 3 * 3 * 5 * 5) << "seed=" << seed;
  }
}

TEST(PseudoRmw, OrFamilyAccumulatesAllMasks) {
  const int n = 4;
  World w(n);
  PseudoRmwSim<OrFamily> obj(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      co_await obj.apply(ctx, std::uint64_t{1} << pid);
    });
  }
  sim::RandomScheduler sched(77);
  ASSERT_TRUE(w.run(sched).all_done);
  std::uint64_t v = 0;
  w.spawn(0, [&](Context ctx) -> ProcessTask { v = co_await obj.read(ctx); });
  w.run_solo(0);
  EXPECT_EQ(v, 0xFu);
}

TEST(PseudoRmw, WaitFreeUnderCrashes) {
  const int n = 3;
  World w(n);
  PseudoRmwSim<AddFamily> obj(w, n);
  std::int64_t seen = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 50; ++i) co_await obj.apply(ctx, 1);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 50; ++i) co_await obj.apply(ctx, 1);
  });
  w.spawn(2, [&](Context ctx) -> ProcessTask {
    seen = co_await obj.read(ctx);
  });
  w.schedule_crash(0, 5);
  w.schedule_crash(1, 9);
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_GE(seen, 0);
  EXPECT_LE(seen, 100);
}

// ---------------------------------------------------------------------------
// Lattice agreement
// ---------------------------------------------------------------------------

TEST(LatticeAgreement, TaskPropertiesOnSetUnion) {
  using L = SetUnionLattice<int>;
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const int n = 4;
    World w(n);
    LatticeAgreementSim<L> la(w, n);
    std::vector<L::Value> proposals(n);
    std::vector<L::Value> learned(n);
    for (int pid = 0; pid < n; ++pid) {
      proposals[static_cast<std::size_t>(pid)] = {pid * 10, pid * 10 + 1};
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        L::Value mine = proposals[static_cast<std::size_t>(pid)];
        learned[static_cast<std::size_t>(pid)] =
            co_await la.propose(ctx, std::move(mine));
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);

    L::Value all = L::bottom();
    for (const auto& p : proposals) all = L::join(all, p);
    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      // LA1: own proposal included.
      EXPECT_TRUE(L::leq(proposals[ui], learned[ui])) << "seed=" << seed;
      // LA2: nothing invented.
      EXPECT_TRUE(L::leq(learned[ui], all)) << "seed=" << seed;
      // LA3: pairwise comparable (chain).
      for (int j = i + 1; j < n; ++j) {
        const auto uj = static_cast<std::size_t>(j);
        EXPECT_TRUE(L::leq(learned[ui], learned[uj]) ||
                    L::leq(learned[uj], learned[ui]))
            << "seed=" << seed;
      }
    }
  }
}

TEST(LatticeAgreement, VectorClockCutsFormAChain) {
  using L = VectorClockLattice;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const int n = 3;
    World w(n);
    LatticeAgreementSim<L> la(w, n);
    std::vector<L::Value> learned(n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        learned[static_cast<std::size_t>(pid)] = co_await la.propose(
            ctx, L::tick(3, static_cast<std::size_t>(pid),
                         static_cast<std::uint64_t>(pid) + 1));
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const auto ui = static_cast<std::size_t>(i);
        const auto uj = static_cast<std::size_t>(j);
        EXPECT_TRUE(L::leq(learned[ui], learned[uj]) ||
                    L::leq(learned[uj], learned[ui]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot linearizability, end to end through the checker
// ---------------------------------------------------------------------------

TEST(SnapshotLinearizability, RecordedHistoriesCheckOut) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const int n = 3;
    World w(n);
    AtomicSnapshotSim<std::int64_t> snap(w, n);
    HistoryRecorder<SnapshotSpec> rec;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (int k = 0; k < 2; ++k) {
          const std::int64_t v = pid * 10 + k;
          const auto t1 = rec.begin(pid, SnapshotSpec::update(pid, v));
          co_await snap.update(ctx, v);
          rec.end(t1, {});

          const auto t2 = rec.begin(pid, SnapshotSpec::scan());
          const auto view = co_await snap.scan(ctx);
          std::vector<std::int64_t> flat;
          for (const auto& slot : view) flat.push_back(slot.value_or(-1));
          rec.end(t2, flat);
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    EXPECT_TRUE(is_linearizable<SnapshotSpec>(rec.take())) << "seed=" << seed;
  }
}

TEST(SnapshotLinearizability, CheckerRejectsTornSnapshots) {
  // Sanity: a hand-built "scan" that pairs values which never coexisted must
  // be rejected.
  using S = SnapshotSpec;
  std::vector<RecordedOp<S>> h;
  h.push_back({0, S::update(0, 1), {}, 0, 1});
  h.push_back({1, S::update(1, 5), {}, 2, 3});
  h.push_back({0, S::update(0, 2), {}, 4, 5});
  // A scan after everything that claims to see (1, 5): value 1 in slot 0 was
  // overwritten by 2 before the scan began.
  h.push_back({2, S::scan(), {1, 5, -1}, 6, 7});
  EXPECT_FALSE(is_linearizable<S>(h));
  // The consistent view passes.
  h.back().resp = {2, 5, -1};
  EXPECT_TRUE(is_linearizable<S>(h));
}

}  // namespace
}  // namespace apram
