// Tests for two-process randomized consensus (objects/randomized_consensus)
// and empirical checks of the approximate-agreement lemmas (Lemmas 1 and 3)
// on recorded executions.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "objects/randomized_consensus.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// Randomized consensus: safety on every run, termination across seeds.
// ---------------------------------------------------------------------------

struct ConsensusRun {
  std::int64_t decided[2] = {-1, -1};
  bool finished = false;
};

ConsensusRun run_consensus(std::int64_t in0, std::int64_t in1,
                           std::uint64_t sched_seed, std::uint64_t coin_seed,
                           std::uint64_t max_steps = 500'000) {
  World w(2);
  RandomizedConsensusSim cons(w, 2);
  ConsensusRun out;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    out.decided[0] = co_await cons.propose(ctx, in0, coin_seed);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    out.decided[1] = co_await cons.propose(ctx, in1, coin_seed + 777);
  });
  sim::RandomScheduler sched(sched_seed);
  out.finished = w.run(sched, max_steps).all_done;
  return out;
}

TEST(RandomizedConsensus, SoloProcessDecidesItsInput) {
  World w(2);
  RandomizedConsensusSim cons(w, 2);
  std::int64_t decided = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    decided = co_await cons.propose(ctx, 42, 1);
  });
  w.run_solo(0);
  EXPECT_EQ(decided, 42);
}

TEST(RandomizedConsensus, AgreementAndValidityAcrossManySeeds) {
  int terminated = 0;
  const int trials = 60;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const auto r = run_consensus(0, 1, seed, seed * 13 + 1);
    if (!r.finished) continue;  // termination is probabilistic; counted below
    ++terminated;
    // Agreement: both decide the same value.
    EXPECT_EQ(r.decided[0], r.decided[1]) << "seed=" << seed;
    // Validity: the decision is someone's input.
    EXPECT_TRUE(r.decided[0] == 0 || r.decided[0] == 1) << "seed=" << seed;
  }
  // Against the oblivious random scheduler, essentially every run should
  // terminate well within the step cap.
  EXPECT_GE(terminated, trials - 2);
}

TEST(RandomizedConsensus, SameInputsDecideThatInput) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto r = run_consensus(7, 7, seed, seed + 3);
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.decided[0], 7);
    EXPECT_EQ(r.decided[1], 7);
  }
}

TEST(RandomizedConsensus, LateRivalAdoptsTheDecision) {
  // P0 runs to completion alone (decides its input), then P1 runs: it must
  // adopt P0's frozen decision — the adopt-when-behind path.
  World w(2);
  RandomizedConsensusSim cons(w, 2);
  std::int64_t d0 = -1, d1 = -1;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    d0 = co_await cons.propose(ctx, 100, 5);
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    d1 = co_await cons.propose(ctx, 200, 6);
  });
  w.run_solo(0);
  w.run_solo(1);
  EXPECT_EQ(d0, 100);
  EXPECT_EQ(d1, 100);
}

TEST(RandomizedConsensus, NonBinaryInputsStayValid) {
  // Validity with arbitrary inputs: the decision must be one of the inputs,
  // even when the conciliator has to re-draw.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto r = run_consensus(1000, -77, seed, seed * 5 + 2);
    if (!r.finished) continue;
    EXPECT_EQ(r.decided[0], r.decided[1]) << "seed=" << seed;
    EXPECT_TRUE(r.decided[0] == 1000 || r.decided[0] == -77)
        << "decided " << r.decided[0] << ", seed=" << seed;
  }
}

TEST(RandomizedConsensus, ThreeProcessAgreementAndValidity) {
  int terminated = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    World w(3);
    RandomizedConsensusSim cons(w, 3);
    std::vector<std::int64_t> decided(3, -1);
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        decided[static_cast<std::size_t>(pid)] =
            co_await cons.propose(ctx, pid % 2, seed * 101 + pid);
      });
    }
    sim::RandomScheduler sched(seed, seed % 2 ? 0.7 : 0.0);
    if (!w.run(sched, 2'000'000).all_done) continue;
    ++terminated;
    EXPECT_EQ(decided[0], decided[1]) << "seed=" << seed;
    EXPECT_EQ(decided[1], decided[2]) << "seed=" << seed;
    EXPECT_TRUE(decided[0] == 0 || decided[0] == 1);
  }
  EXPECT_GE(terminated, 28);
}

TEST(RandomizedConsensus, SurvivorDecidesDespiteRivalCrash) {
  for (std::uint64_t crash_at = 1; crash_at < 12; ++crash_at) {
    World w(2);
    RandomizedConsensusSim cons(w, 2);
    std::int64_t d1 = -1;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      (void)co_await cons.propose(ctx, 0, 9);
    });
    w.spawn(1, [&](Context ctx) -> ProcessTask {
      d1 = co_await cons.propose(ctx, 1, 10);
    });
    w.schedule_crash(0, crash_at);
    sim::RandomScheduler rnd(crash_at);
    const auto res = w.run(rnd, 500'000);
    EXPECT_TRUE(res.all_done);
    EXPECT_TRUE(d1 == 0 || d1 == 1) << "crash_at=" << crash_at;
  }
}

// ---------------------------------------------------------------------------
// Lemmas 1 and 3, checked on recorded Figure 2 executions.
// ---------------------------------------------------------------------------

// Reconstruct the X_r sets from the write log and check:
//   Lemma 1: range(X_r) ⊆ range(X_{r-1}) for r > 1
//   Lemma 3: |range(X_r)| ≤ |range(X_{r-1})| / 2
TEST(AgreementLemmas, RangesNestAndHalveOnRealExecutions) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const int n = 4;
    Rng rng(seed * 7 + 2);
    std::vector<double> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(rng.uniform(-5.0, 5.0));

    World w(n);
    ApproxAgreementSim aa(w, n, /*eps=*/1.0 / 256.0);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        co_await aa.input(ctx, inputs[static_cast<std::size_t>(pid)]);
      });
    }
    sim::RoundRobinScheduler rr;
    ASSERT_TRUE(w.run(rr).all_done);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        (void)co_await aa.output(ctx);
      });
    }
    sim::RandomScheduler sched(seed, seed % 2 ? 0.8 : 0.0);
    ASSERT_TRUE(w.run(sched, 10'000'000).all_done);

    std::map<std::int64_t, RealRange> x_ranges;
    for (const auto& rec : aa.write_log()) {
      x_ranges[rec.round].extend(rec.prefer);
    }
    ASSERT_FALSE(x_ranges.empty());
    for (auto it = std::next(x_ranges.begin()); it != x_ranges.end(); ++it) {
      const auto prev = std::prev(it);
      ASSERT_EQ(it->first, prev->first + 1) << "round gap, seed=" << seed;
      // Lemma 1: nesting.
      EXPECT_TRUE(prev->second.contains(it->second))
          << "Lemma 1 violated at round " << it->first << ", seed=" << seed;
      // Lemma 3: halving (with float-tolerant comparison).
      EXPECT_LE(it->second.size(), prev->second.size() / 2.0 + 1e-12)
          << "Lemma 3 violated at round " << it->first << ", seed=" << seed;
    }
  }
}

TEST(AgreementLemmas, WriteLogRecordsInputsAtRoundOne) {
  World w(2);
  ApproxAgreementSim aa(w, 2, 0.5);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await aa.input(ctx, 3.0); });
  w.spawn(1, [&](Context ctx) -> ProcessTask { co_await aa.input(ctx, 4.0); });
  w.run_solo(0);
  w.run_solo(1);
  ASSERT_EQ(aa.write_log().size(), 2u);
  EXPECT_EQ(aa.write_log()[0].round, 1);
  EXPECT_DOUBLE_EQ(aa.write_log()[0].prefer, 3.0);
  EXPECT_EQ(aa.write_log()[1].pid, 1);
}

}  // namespace
}  // namespace apram
