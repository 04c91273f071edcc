// Real-thread fault injection tests: the RtInjector's access accounting,
// probabilistic perturbation, and the hard-stall machinery — ending with
// stalled (pending) operations fed through the linearizability checker.
//
// The sim side proves properties over ALL schedules; these tests prove the
// rt implementations survive schedules the OS actually produces once an
// injector shakes them. They run on any core count (including 1).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/rt_inject.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/fast_counter.hpp"
#include "objects/specs.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "util/rng.hpp"

namespace apram::rt {
namespace {

using C = CounterSpec;

RecordedOp<C> op(int pid, C::Invocation inv, std::int64_t resp,
                 std::uint64_t t0, std::uint64_t t1) {
  return RecordedOp<C>{pid, inv, resp, t0, t1};
}

// ---------------------------------------------------------------------------
// Access accounting
// ---------------------------------------------------------------------------

TEST(RtInjector, CountsEveryRegisterAccessPerPid) {
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<int> reg(0);
  reg.attach_injector(&inj);
  parallel_run(3, [&](int pid) {
    if (pid == 0) {
      for (int i = 0; i < 10; ++i) reg.write(i);  // 10 accesses
    } else {
      for (int i = 0; i < 5; ++i) reg.read();  // 5 accesses
    }
  });
  EXPECT_EQ(inj.accesses(0), 10u);
  EXPECT_EQ(inj.accesses(1), 5u);
  EXPECT_EQ(inj.accesses(2), 5u);
}

TEST(RtInjector, ThreadsWithoutAPidPassThroughUncounted) {
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<int> reg(7);
  reg.attach_injector(&inj);
  // The main thread has no harness pid (obs::thread_pid() < 0): its accesses
  // are neither counted nor perturbed.
  EXPECT_EQ(reg.read(), 7);
  for (int pid = 0; pid < 4; ++pid) EXPECT_EQ(inj.accesses(pid), 0u);
}

TEST(RtInjector, DetachedRegisterInjectsNothing) {
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<int> reg(0);
  parallel_run(1, [&](int) {
    for (int i = 0; i < 8; ++i) reg.write(i);
  });
  EXPECT_EQ(inj.accesses(0), 0u);
}

// ---------------------------------------------------------------------------
// Probabilistic perturbation
// ---------------------------------------------------------------------------

TEST(RtInjector, CertainYieldProbabilityYieldsOnEveryAccess) {
  fault::RtInjectOptions opts;
  opts.yield_prob = 1.0;
  fault::RtInjector inj(opts);
  SWMRRegister<int> reg(0);
  reg.attach_injector(&inj);
  parallel_run(2, [&](int pid) {
    for (int i = 0; i < 50; ++i) {
      if (pid == 0) reg.write(i); else reg.read();
    }
  });
  EXPECT_EQ(inj.yields_injected(), 100u);
  EXPECT_EQ(inj.sleeps_injected(), 0u);
}

TEST(RtInjector, SleepsFireAndTakePriorityOverYields) {
  fault::RtInjectOptions opts;
  opts.yield_prob = 1.0;
  opts.sleep_prob = 1.0;  // sleep wins when both would fire
  opts.sleep_max_us = 1;
  fault::RtInjector inj(opts);
  SWMRRegister<int> reg(0);
  reg.attach_injector(&inj);
  parallel_run(1, [&](int) {
    for (int i = 0; i < 10; ++i) reg.write(i);
  });
  EXPECT_EQ(inj.sleeps_injected(), 10u);
  EXPECT_EQ(inj.yields_injected(), 0u);
}

// ---------------------------------------------------------------------------
// Hard stall: the rt analogue of the sim's victim-keyed crash
// ---------------------------------------------------------------------------

TEST(RunWithStall, VictimParksAfterExactlyItsQuotaThenResumes) {
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<int> reg(0);
  reg.attach_injector(&inj);
  int mid_stall_value = -1;
  run_with_stall(
      /*num_threads=*/1,
      [&](int) {
        for (int i = 1; i <= 100; ++i) reg.write(i);
      },
      inj, /*victim=*/0, /*stall_after=*/10,
      [&] {
        // The victim parked at the TOP of its 11th access: exactly ten
        // writes landed, mirroring "crash before the (S+1)-th access".
        mid_stall_value = reg.read();
      });
  EXPECT_EQ(mid_stall_value, 10);
  EXPECT_EQ(reg.read(), 100);  // released victim finished its program
  EXPECT_EQ(inj.accesses(0), 100u);
}

TEST(RunWithStall, HoldPointParksTheReaderWithItsVersionPinned) {
  // The kHold stall point parks the victim BETWEEN version acquire and
  // dereference — the exact window a reclamation bug would need to free a
  // held version. The victim's read completes only after release_stall(),
  // yet must return the value that was current when it parked, fully
  // intact, no matter how many writes landed in between.
  // The payload must live in the arena: an inline register has no hold
  // window, and the victim would simply finish first.
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<std::vector<int>> reg(std::vector<int>(32, 7));
  reg.attach_injector(&inj);
  std::vector<int> victim_saw;
  bool engaged = false;
  run_with_stall(
      /*num_threads=*/1,
      [&](int) { victim_saw = reg.read(); },
      inj, /*victim=*/0, /*stall_after=*/0,
      [&] {
        engaged = inj.stall_engaged();
        for (int i = 1; i <= 50; ++i) reg.write(std::vector<int>(32, i));
      },
      /*tracer=*/nullptr, fault::StallPoint::kHold);
  // The victim parked pre-dereference holding version 7 and read it after
  // the churn.
  EXPECT_TRUE(engaged);
  ASSERT_EQ(victim_saw.size(), 32u);
  for (int v : victim_saw) EXPECT_EQ(v, 7);
  EXPECT_EQ(reg.read()[0], 50);
}

TEST(RunWithStall, HoldStallLeavesAccessAccountingExact) {
  // on_hold must not count as an access: a victim parked at the hold point
  // of its 3rd read still reports exactly its access count. Arena payload:
  // only arena registers have a hold point to park at.
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<std::vector<int>> reg(std::vector<int>(4, 0));
  reg.attach_injector(&inj);
  bool engaged = false;
  run_with_stall(
      /*num_threads=*/1,
      [&](int) {
        for (int i = 0; i < 10; ++i) (void)reg.read();
      },
      inj, /*victim=*/0, /*stall_after=*/2,
      [&] {
        engaged = inj.stall_engaged();
        // Parked inside its 3rd read: exactly three accesses so far.
        EXPECT_EQ(inj.accesses(0), 3u);
      },
      /*tracer=*/nullptr, fault::StallPoint::kHold);
  EXPECT_TRUE(engaged);
  EXPECT_EQ(inj.accesses(0), 10u);
}

TEST(RunWithStall, CompletionWinsWhenVictimFinishesUnderThreshold) {
  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<int> reg(0);
  reg.attach_injector(&inj);
  bool while_stalled_ran = false;
  run_with_stall(
      /*num_threads=*/1,
      [&](int) {
        for (int i = 1; i <= 3; ++i) reg.write(i);
      },
      inj, /*victim=*/0, /*stall_after=*/1000,
      [&] { while_stalled_ran = true; });
  // The victim finished before reaching the stall point; the orchestration
  // still runs the observer and completes (no deadlock, no spurious park).
  EXPECT_TRUE(while_stalled_ran);
  EXPECT_EQ(reg.read(), 3);
}

// ---------------------------------------------------------------------------
// Linearizability under injection
// ---------------------------------------------------------------------------

// A stalled increment is exactly a pending operation in the checker's
// sense: invoked, never (yet) responded. The mid-stall probe's read must be
// consistent with the pending op either taking effect or not.
TEST(RunWithStall, StalledIncrementIsAPendingOpToTheChecker) {
  // Calibrate: how many register accesses does one inc cost under the
  // current scan implementation? (We pin the stall to the boundary between
  // the victim's first and second inc, wherever that lands.)
  std::uint64_t per_inc = 0;
  {
    fault::RtInjector inj(fault::RtInjectOptions{});
    FastCounterRT calib(2);
    calib.attach_injector(&inj);
    parallel_run(1, [&](int pid) { calib.inc(pid); });
    per_inc = inj.accesses(0);
    ASSERT_GT(per_inc, 0u);
  }

  fault::RtInjector inj(fault::RtInjectOptions{});
  FastCounterRT counter(2);  // pid 0 = victim; pid 1 = the probe's slot
  counter.attach_injector(&inj);
  std::int64_t probed = -1;
  run_with_stall(
      /*num_threads=*/1,
      [&](int pid) {
        counter.inc(pid);
        counter.inc(pid);  // parks at this inc's first register access
      },
      inj, /*victim=*/0, /*stall_after=*/per_inc,
      [&] {
        // Main thread (no pid: uninjected) probes through an unowned slot
        // while the victim is provably parked mid-operation.
        probed = counter.read(1);
      });

  // The park point precedes any publication of inc #2, so the probe saw
  // exactly the first increment.
  EXPECT_EQ(probed, 1);
  // The checker agrees the mid-stall history is linearizable with inc #2
  // pending: completed inc [0,1], pending inc invoked at 2, probe read at
  // [3,4] observing `probed`.
  std::vector<RecordedOp<C>> h{
      op(0, C::inc(1), 0, 0, 1),
      op(1, C::read(), probed, 3, 4),
  };
  RecordedOp<C> pending;
  pending.pid = 0;
  pending.inv = C::inc(1);
  pending.invoke_time = 2;  // respond_time stays kPending
  h.push_back(pending);
  EXPECT_TRUE(is_linearizable<C>(h));
  // After release + join both increments are visible.
  EXPECT_EQ(counter.read(1), 2);
}

// End-to-end: concurrent counter histories recorded under yield/sleep
// injection check out linearizable. Small here (tier 1); the thousand-run
// version lives in the stress campaign.
TEST(FaultRt, InjectedCounterHistoriesAreLinearizable) {
  const int n = 3;
  const int ops_per_thread = 6;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    fault::RtInjectOptions opts;
    opts.yield_prob = 0.5;
    opts.sleep_prob = 0.1;
    opts.sleep_max_us = 5;
    opts.seed = seed;
    fault::RtInjector inj(opts);
    FastCounterRT counter(n);
    counter.attach_injector(&inj);

    HistoryRecorder<C> rec;
    parallel_run(n, [&](int pid) {
      Rng rng(seed * 977 + static_cast<std::uint64_t>(pid));
      for (int i = 0; i < ops_per_thread; ++i) {
        if (rng.chance(0.5)) {
          const auto tok = rec.begin(pid, C::inc(1));
          counter.inc(pid);
          rec.end(tok, 0);
        } else {
          const auto tok = rec.begin(pid, C::read());
          rec.end(tok, counter.read(pid));
        }
      }
    });
    EXPECT_TRUE(is_linearizable<C>(rec.take())) << "seed=" << seed;
    EXPECT_GT(inj.yields_injected() + inj.sleeps_injected(), 0u);
  }
}

}  // namespace
}  // namespace apram::rt
