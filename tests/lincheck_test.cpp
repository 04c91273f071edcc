// Tests for the linearizability checker itself (known-good and known-bad
// histories), then end-to-end: recorded histories of the universal counter,
// the FastCounter and universal2's Counter2 under random schedules must
// check linearizable.
#include <gtest/gtest.h>

#include <vector>

#include "api/sim_backend.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/counter.hpp"
#include "objects/fast_counter.hpp"
#include "objects/specs.hpp"
#include "sim/scheduler.hpp"
#include "universal2/counter_rep.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;
using C = CounterSpec;

RecordedOp<C> op(int pid, C::Invocation inv, std::int64_t resp,
                 std::uint64_t t0, std::uint64_t t1) {
  return RecordedOp<C>{pid, inv, resp, t0, t1};
}

// ---------------------------------------------------------------------------
// Checker unit tests on hand-built histories
// ---------------------------------------------------------------------------

TEST(Checker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(is_linearizable<C>({}));
}

TEST(Checker, SequentialHistoryLegal) {
  EXPECT_TRUE(is_linearizable<C>({
      op(0, C::inc(5), 0, 0, 1),
      op(0, C::read(), 5, 2, 3),
  }));
}

TEST(Checker, SequentialHistoryWithWrongResponseIllegal) {
  EXPECT_FALSE(is_linearizable<C>({
      op(0, C::inc(5), 0, 0, 1),
      op(0, C::read(), 4, 2, 3),  // should read 5
  }));
}

TEST(Checker, ConcurrentReadsMayLinearizeEitherSide) {
  // inc(1) overlaps a read; read may return 0 (before) or 1 (after).
  for (std::int64_t r : {0, 1}) {
    EXPECT_TRUE(is_linearizable<C>({
        op(0, C::inc(1), 0, 0, 10),
        op(1, C::read(), r, 5, 6),
    })) << "read=" << r;
  }
  EXPECT_FALSE(is_linearizable<C>({
      op(0, C::inc(1), 0, 0, 10),
      op(1, C::read(), 2, 5, 6),
  }));
}

TEST(Checker, RealTimeOrderIsRespected) {
  // inc completes before the read starts, so the read must see it.
  EXPECT_FALSE(is_linearizable<C>({
      op(0, C::inc(1), 0, 0, 1),
      op(1, C::read(), 0, 2, 3),  // stale read: illegal
  }));
}

TEST(Checker, NewOldInversionIsIllegal) {
  // Two sequential reads around a concurrent inc: the second read cannot
  // observe less than the first.
  EXPECT_FALSE(is_linearizable<C>({
      op(0, C::inc(1), 0, 0, 100),
      op(1, C::read(), 1, 10, 11),
      op(1, C::read(), 0, 12, 13),
  }));
  EXPECT_TRUE(is_linearizable<C>({
      op(0, C::inc(1), 0, 0, 100),
      op(1, C::read(), 0, 10, 11),
      op(1, C::read(), 1, 12, 13),
  }));
}

TEST(Checker, PendingOpMayTakeEffectOrNot) {
  // A pending inc (crashed before responding) may or may not be observed.
  for (std::int64_t r : {0, 1}) {
    std::vector<RecordedOp<C>> h{
        op(1, C::read(), r, 10, 11),
    };
    RecordedOp<C> pending;
    pending.pid = 0;
    pending.inv = C::inc(1);
    pending.invoke_time = 0;  // respond_time stays kPending
    h.push_back(pending);
    EXPECT_TRUE(is_linearizable<C>(h)) << "read=" << r;
  }
  // But it cannot be observed twice / with the wrong amount.
  std::vector<RecordedOp<C>> h{
      op(1, C::read(), 2, 10, 11),
  };
  RecordedOp<C> pending;
  pending.pid = 0;
  pending.inv = C::inc(1);
  pending.invoke_time = 0;
  h.push_back(pending);
  EXPECT_FALSE(is_linearizable<C>(h));
}

TEST(Checker, ResetSemantics) {
  EXPECT_TRUE(is_linearizable<C>({
      op(0, C::inc(7), 0, 0, 1),
      op(1, C::reset(0), 0, 2, 3),
      op(0, C::read(), 0, 4, 5),
  }));
  EXPECT_FALSE(is_linearizable<C>({
      op(0, C::inc(7), 0, 0, 1),
      op(1, C::reset(0), 0, 2, 3),
      op(0, C::read(), 7, 4, 5),  // reset already completed: 7 impossible
  }));
}

TEST(Checker, WitnessIsAValidLinearization) {
  std::vector<RecordedOp<C>> h{
      op(0, C::inc(1), 0, 0, 10),
      op(1, C::read(), 1, 5, 6),
      op(0, C::read(), 1, 11, 12),
  };
  LinearizabilityChecker<C> checker(h);
  ASSERT_TRUE(checker.check());
  const auto& w = checker.witness();
  ASSERT_EQ(w.size(), 3u);
  // Replay the witness: all responses must match.
  auto state = C::initial();
  for (std::size_t i : w) {
    auto [next, resp] = C::apply(state, h[i].inv);
    EXPECT_EQ(resp, h[i].resp);
    state = next;
  }
}

TEST(Checker, CheckIsIdempotent) {
  // Regression: check() must be re-runnable — the memo and witness are
  // cleared on entry, so a second call returns the same verdict and the
  // same witness instead of reading stale state.
  std::vector<RecordedOp<C>> h{
      op(0, C::inc(1), 0, 0, 10),
      op(1, C::read(), 1, 5, 6),
  };
  LinearizabilityChecker<C> checker(h);
  ASSERT_TRUE(checker.check());
  const std::vector<std::size_t> first = checker.witness();
  ASSERT_TRUE(checker.check());
  EXPECT_EQ(checker.witness(), first);
}

TEST(Checker, WitnessEmptyUnlessLastCheckSucceeded) {
  std::vector<RecordedOp<C>> bad{
      op(0, C::inc(1), 0, 0, 1),
      op(0, C::read(), 7, 2, 3),  // impossible response
  };
  LinearizabilityChecker<C> checker(bad);
  EXPECT_FALSE(checker.check());
  EXPECT_TRUE(checker.witness().empty());
  // And again: a repeated failing check stays failing with an empty witness.
  EXPECT_FALSE(checker.check());
  EXPECT_TRUE(checker.witness().empty());
}

// ---------------------------------------------------------------------------
// End-to-end: recorded histories from the simulator check out.
// ---------------------------------------------------------------------------

template <class CounterT>
std::vector<RecordedOp<C>> record_counter_run(std::uint64_t seed, int n,
                                              int ops_per_proc,
                                              bool inject_crashes) {
  World w(n);
  CounterT c(w, n);
  HistoryRecorder<C> rec;
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(pid));
      for (int i = 0; i < ops_per_proc; ++i) {
        if (rng.chance(0.5)) {
          const auto inv = C::inc(1);
          const auto tok = rec.begin(pid, inv);
          co_await c.inc(ctx, 1);
          rec.end(tok, 0);
        } else {
          const auto inv = C::read();
          const auto tok = rec.begin(pid, inv);
          const std::int64_t r = co_await c.read(ctx);
          rec.end(tok, r);
        }
      }
    });
  }
  if (inject_crashes) w.schedule_crash(0, 30 + seed % 7);
  sim::RandomScheduler rnd(seed);
  w.run(rnd);
  return rec.take();
}

TEST(EndToEnd, UniversalCounterHistoriesAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto h = record_counter_run<CounterSim>(seed, 3, 3, false);
    EXPECT_TRUE(is_linearizable<C>(std::move(h))) << "seed=" << seed;
  }
}

TEST(EndToEnd, UniversalCounterHistoriesWithCrashesAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto h = record_counter_run<CounterSim>(seed, 3, 3, true);
    EXPECT_TRUE(is_linearizable<C>(std::move(h))) << "seed=" << seed;
  }
}

TEST(EndToEnd, FastCounterHistoriesAreLinearizable) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    auto h = record_counter_run<FastCounterSim>(seed, 3, 3, false);
    EXPECT_TRUE(is_linearizable<C>(std::move(h))) << "seed=" << seed;
  }
}

// universal2's Counter2 under an inc/dec/reset/read mix, three ops per
// process. Every third seed crashes one process partway; its pending op may
// or may not take effect.
using U2Counter = universal2::Counter2<api::SimBackend>;

C::Invocation u2_mix_op(Rng& rng) {
  switch (rng.below(6)) {
    case 0:
    case 1:
      return C::inc(rng.range(1, 3));
    case 2:
      return C::dec(rng.range(1, 2));
    case 3:
      return C::reset(rng.range(0, 5));
    default:
      return C::read();
  }
}

std::vector<RecordedOp<C>> record_u2_counter_run(std::uint64_t seed, int n,
                                                 U2Counter::Config cfg) {
  World w(n);
  U2Counter c(w, n, cfg);
  HistoryRecorder<C> rec;
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(pid));
      for (int i = 0; i < 3; ++i) {
        const C::Invocation inv = u2_mix_op(rng);
        const auto tok = rec.begin(pid, inv);
        const std::int64_t r = co_await c.sim().execute(ctx, inv);
        rec.end(tok, r);
      }
    });
  }
  if (seed % 3 == 0) {
    w.schedule_crash(static_cast<int>(seed / 3 % static_cast<std::uint64_t>(n)),
                     4 + seed % 29);
  }
  sim::RandomScheduler rnd(seed, seed % 2 == 0 ? 0.0 : 0.6);
  EXPECT_TRUE(w.run(rnd).all_done) << "seed=" << seed;
  // A closing read, after every process finished or crashed, sees every
  // effect: a lost or doubled mutation cannot hide behind a missing read.
  const int reader = w.crashed(0) ? 1 : 0;
  w.spawn(reader, [&](Context ctx) -> ProcessTask {
    const auto tok = rec.begin(reader, C::read());
    const std::int64_t r = co_await c.read(ctx);
    rec.end(tok, r);
  });
  w.run_solo(reader);
  return rec.take();
}

TEST(EndToEnd, U2CounterHistoriesAreLinearizable) {
  U2Counter::Config slow;  // every mutation announces; every op helps first
  slow.max_fast_attempts = 0;
  slow.help_period = 1;
  U2Counter::Config no_help;  // only slow-path waiters help
  no_help.help_period = 0;
  U2Counter::Config mixed;  // one lost fast CAS announces; every op helps
  mixed.max_fast_attempts = 1;
  mixed.help_period = 1;
  for (const U2Counter::Config& cfg :
       {U2Counter::Config{}, slow, no_help, mixed}) {
    for (int n : {2, 3, 4}) {
      for (std::uint64_t seed = 0; seed < 180; ++seed) {
        auto h = record_u2_counter_run(seed, n, cfg);
        EXPECT_TRUE(is_linearizable<C>(std::move(h)))
            << "n=" << n << " max_fast_attempts=" << cfg.max_fast_attempts
            << " help_period=" << cfg.help_period << " seed=" << seed;
      }
    }
  }
}

TEST(EndToEnd, CheckerCatchesABrokenCounter) {
  // Sanity for the whole methodology: a racy (non-atomic) counter built on
  // raw registers must produce non-linearizable histories under contention.
  // We build the classic lost-update schedule deterministically.
  World w(2);
  auto& reg = w.make<std::int64_t>(0);
  HistoryRecorder<C> rec;
  for (int pid = 0; pid < 2; ++pid) {
    w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
      const auto tok = rec.begin(pid, C::inc(1));
      const std::int64_t v = co_await ctx.read(reg);
      co_await ctx.write(reg, v + 1);
      rec.end(tok, 0);
    });
  }
  sim::FixedScheduler sched({0, 1, 0, 1});
  w.run(sched);
  // Append a read of the final value: 1, though two incs completed.
  auto h = rec.take();
  h.push_back(op(0, C::read(), reg.peek(), 1000, 1001));
  EXPECT_EQ(reg.peek(), 1);
  EXPECT_FALSE(is_linearizable<C>(std::move(h)));
}

}  // namespace
}  // namespace apram
