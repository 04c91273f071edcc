// Additional object coverage: the join-map dictionary (algebra validation,
// sequential and concurrent semantics, linearizability), n > 2 commit-adopt
// property tests under random schedules, plain-mode universal construction,
// and lincheck round-trips for the grow-set and max-register specs.
#include <gtest/gtest.h>

#include <vector>

#include "algebra/check.hpp"
#include "lincheck/checker.hpp"
#include "objects/adopt_commit.hpp"
#include "objects/grow_set.hpp"
#include "objects/join_map.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// JoinMap
// ---------------------------------------------------------------------------

JoinMapSpec::Invocation random_jm_inv(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return JoinMapSpec::put(rng.range(0, 3), rng.range(0, 9));
    case 1: return JoinMapSpec::get(rng.range(0, 3));
    default: return JoinMapSpec::size();
  }
}

TEST(JoinMap, DeclaredAlgebraMatchesDefinitionsAndProperty1) {
  Rng rng(1201);
  for (int t = 0; t < 600; ++t) {
    auto s = JoinMapSpec::initial();
    for (std::uint64_t i = 0, len = rng.below(5); i < len; ++i) {
      s = JoinMapSpec::apply(s, random_jm_inv(rng)).first;
    }
    const auto p = random_jm_inv(rng);
    const auto q = random_jm_inv(rng);
    const auto v = validate_pair_at<JoinMapSpec>(s, p, q);
    EXPECT_TRUE(v.declared_consistent);
    EXPECT_TRUE(v.property1);
    EXPECT_TRUE(declared_property1<JoinMapSpec>(p, q));
  }
}

TEST(JoinMap, SequentialSemantics) {
  World w(1);
  JoinMapSim m(w, 1);
  std::optional<std::int64_t> got;
  std::optional<std::int64_t> missing;
  std::int64_t size = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    co_await m.put(ctx, 1, 10);
    co_await m.put(ctx, 1, 7);   // lower value: no effect (join = max)
    co_await m.put(ctx, 2, 5);
    got = co_await m.get(ctx, 1);
    missing = co_await m.get(ctx, 99);
    size = co_await m.size(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(got, 10);
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(size, 2);
}

TEST(JoinMap, ConcurrentPutsConvergeToPerKeyMax) {
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    World w(n);
    JoinMapSim m(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await m.put(ctx, 0, pid + 1);       // all race on key 0
        co_await m.put(ctx, pid + 10, pid);    // private keys
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    std::optional<std::int64_t> hot;
    std::int64_t size = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      hot = co_await m.get(ctx, 0);
      size = co_await m.size(ctx);
    });
    w.run_solo(0);
    EXPECT_EQ(hot, n) << "seed=" << seed;  // max of {1..n}, nothing lost
    EXPECT_EQ(size, n + 1) << "seed=" << seed;
  }
}

TEST(JoinMap, HistoriesAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const int n = 3;
    World w(n);
    JoinMapSim m(w, n);
    HistoryRecorder<JoinMapSpec> rec;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        {
          const auto inv = JoinMapSpec::put(0, pid + 1);
          const auto tok = rec.begin(pid, inv);
          co_await m.put(ctx, 0, pid + 1);
          rec.end(tok, 0);
        }
        {
          const auto inv = JoinMapSpec::get(0);
          const auto tok = rec.begin(pid, inv);
          const auto got = co_await m.get(ctx, 0);
          rec.end(tok, got.value_or(JoinMapSpec::kMissing));
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    EXPECT_TRUE(is_linearizable<JoinMapSpec>(rec.take())) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Commit-adopt at n > 2 (exhaustive coverage lives in explore_test)
// ---------------------------------------------------------------------------

TEST(AdoptCommitWide, CoherenceAndValidityUnderRandomSchedules) {
  for (int n : {3, 4}) {
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      World w(n);
      AdoptCommitSim ca(w, n);
      std::vector<CaResult> results(static_cast<std::size_t>(n));
      Rng rng(seed * 17 + static_cast<std::uint64_t>(n));
      std::vector<std::int64_t> inputs;
      for (int i = 0; i < n; ++i) inputs.push_back(rng.range(0, 2));
      for (int pid = 0; pid < n; ++pid) {
        w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
          results[static_cast<std::size_t>(pid)] = co_await ca.propose(
              ctx, inputs[static_cast<std::size_t>(pid)]);
        });
      }
      sim::RandomScheduler sched(seed, seed % 2 ? 0.75 : 0.0);
      ASSERT_TRUE(w.run(sched).all_done);

      std::int64_t committed = JoinMapSpec::kMissing;
      for (int pid = 0; pid < n; ++pid) {
        const auto& r = results[static_cast<std::size_t>(pid)];
        // CA1: the value was proposed by someone.
        EXPECT_TRUE(std::count(inputs.begin(), inputs.end(), r.value) > 0);
        if (r.verdict == CaVerdict::kCommit) {
          if (committed != JoinMapSpec::kMissing) {
            EXPECT_EQ(committed, r.value);  // commits agree
          }
          committed = r.value;
        }
      }
      if (committed != JoinMapSpec::kMissing) {
        for (int pid = 0; pid < n; ++pid) {
          // CA2: everyone's value equals the committed one.
          EXPECT_EQ(results[static_cast<std::size_t>(pid)].value, committed)
              << "n=" << n << " seed=" << seed;
        }
      }
    }
  }
}

TEST(AdoptCommitWide, UnanimousProposalsAlwaysCommit) {
  for (int n : {3, 5}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      World w(n);
      AdoptCommitSim ca(w, n);
      std::vector<CaResult> results(static_cast<std::size_t>(n));
      for (int pid = 0; pid < n; ++pid) {
        w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
          results[static_cast<std::size_t>(pid)] = co_await ca.propose(ctx, 4);
        });
      }
      sim::RandomScheduler sched(seed);
      ASSERT_TRUE(w.run(sched).all_done);
      for (const auto& r : results) {
        EXPECT_EQ(r.verdict, CaVerdict::kCommit);  // CA3
        EXPECT_EQ(r.value, 4);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plain-mode universal construction (the §6.2 ablation applies end to end)
// ---------------------------------------------------------------------------

TEST(PlainMode, GrowSetBehavesIdenticallyInPlainScanMode) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    World w(3);
    GrowSetSim s(w, 3, ScanMode::kPlain);
    std::vector<std::int64_t> sizes(3, -1);
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await s.insert(ctx, pid);
        sizes[static_cast<std::size_t>(pid)] = co_await s.size(ctx);
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    for (auto size : sizes) {
      EXPECT_GE(size, 1);
      EXPECT_LE(size, 3);
    }
  }
}

// ---------------------------------------------------------------------------
// MaxRegister lincheck round-trip
// ---------------------------------------------------------------------------

TEST(MaxRegisterLincheck, UniversalHistoriesAreLinearizable) {
  using S = MaxRegisterSpec;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const int n = 3;
    World w(n);
    UniversalObjectSim<S> u(w, n);
    HistoryRecorder<S> rec;
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        {
          const auto inv = S::write_max((pid + 1) * 10);
          const auto tok = rec.begin(pid, inv);
          co_await u.execute(ctx, inv);
          rec.end(tok, 0);
        }
        {
          const auto inv = S::read();
          const auto tok = rec.begin(pid, inv);
          const auto r = co_await u.execute(ctx, inv);
          rec.end(tok, r);
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched).all_done);
    EXPECT_TRUE(is_linearizable<S>(rec.take())) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace apram
