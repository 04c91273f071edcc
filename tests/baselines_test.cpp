// Tests for the snapshot baselines (simulator flavours): functional
// correctness, the wait-freedom *failure* of double-collect under an
// adversarial updater (the property E5 quantifies), and the wait-freedom of
// the AADGMS helping snapshot.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "sim/scheduler.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// ---------------------------------------------------------------------------
// Double-collect
// ---------------------------------------------------------------------------

TEST(DoubleCollect, SequentialScanSeesUpdates) {
  World w(2);
  DoubleCollectSnapshotSim<int> snap(w, 2);
  std::optional<std::vector<std::optional<int>>> view;
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 3); });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    view = co_await snap.scan(ctx);
  });
  w.run_solo(0);
  w.run_solo(1);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ((*view)[0], 3);
  EXPECT_FALSE((*view)[1].has_value());
}

TEST(DoubleCollect, UncontendedScanCostsTwoCollects) {
  const int n = 4;
  World w(n);
  DoubleCollectSnapshotSim<int> snap(w, n);
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    (void)co_await snap.scan(ctx);
  });
  w.run_solo(0);
  EXPECT_EQ(w.counts(0).reads, static_cast<std::uint64_t>(2 * n));
}

TEST(DoubleCollect, AdversarialUpdaterStarvesTheScanner) {
  // The signature failure of the non-wait-free baseline: an updater that
  // writes between the scanner's two collects keeps the scan retrying
  // forever. We interleave deterministically: the scanner's bounded scan
  // gives up after `max_attempts`, which the wait-free scan never would.
  const int n = 2;
  World w(n);
  DoubleCollectSnapshotSim<int> snap(w, n);
  bool gave_up = false;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    const auto view = co_await snap.scan(ctx, /*max_attempts=*/50);
    gave_up = !view.has_value();
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 100000; ++i) co_await snap.update(ctx, i);
  });
  // Schedule: scanner reads slot0, slot1 (collect 1), then the updater
  // writes, then collect 2 — tags differ, retry, repeat.
  std::vector<int> schedule;
  for (int round = 0; round < 50; ++round) {
    schedule.insert(schedule.end(), {0, 0, 1, 0, 0});  // c1, write, c2
  }
  sim::FixedScheduler sched(schedule);
  w.run(sched);
  sim::RoundRobinScheduler rr;
  w.run(rr, 2'000'000);
  EXPECT_TRUE(gave_up);
}

TEST(DoubleCollect, OurScanTerminatesUnderTheSameAdversary) {
  // Same adversarial pressure, wait-free scan: terminates in exactly n²-1
  // reads regardless.
  const int n = 2;
  World w(n);
  AtomicSnapshotSim<int> snap(w, n);
  bool done = false;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    (void)co_await snap.scan(ctx);
    done = true;
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 100000; ++i) co_await snap.update(ctx, i);
  });
  std::vector<int> schedule;
  for (int round = 0; round < 50; ++round) {
    schedule.insert(schedule.end(), {0, 0, 1, 0, 0});
  }
  sim::FixedScheduler sched(schedule);
  w.run(sched);
  sim::RoundRobinScheduler rr;
  w.run(rr, 2'000'000);
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// AADGMS (Afek et al.) helping snapshot
// ---------------------------------------------------------------------------

TEST(AfekSnapshot, SequentialScanSeesUpdates) {
  World w(3);
  AfekSnapshotSim<int> snap(w, 3);
  std::vector<std::optional<int>> view;
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 1); });
  w.spawn(1, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 2); });
  w.spawn(2, [&](Context ctx) -> ProcessTask {
    view = co_await snap.scan(ctx);
  });
  w.run_solo(0);
  w.run_solo(1);
  w.run_solo(2);
  EXPECT_EQ(view[0], 1);
  EXPECT_EQ(view[1], 2);
  EXPECT_FALSE(view[2].has_value());
}

TEST(AfekSnapshot, ScanIsWaitFreeUnderAdversarialUpdates) {
  // The same adversary that starves double-collect: AADGMS borrows the
  // updater's embedded view after it moves twice, so the scan terminates.
  const int n = 2;
  World w(n);
  AfekSnapshotSim<int> snap(w, n);
  bool done = false;
  w.spawn(0, [&](Context ctx) -> ProcessTask {
    (void)co_await snap.scan(ctx);
    done = true;
  });
  w.spawn(1, [&](Context ctx) -> ProcessTask {
    for (int i = 0; i < 100000; ++i) co_await snap.update(ctx, i);
  });
  // Interleave updater writes between the scanner's collects until the
  // scanner finishes.
  sim::RoundRobinScheduler rr;
  const auto r = w.run_steps(rr, 500'000);
  (void)r;
  EXPECT_TRUE(done);
}

TEST(AfekSnapshot, ScansAreMonotoneUnderRandomSchedules) {
  const int n = 3;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    World w(n);
    AfekSnapshotSim<std::uint64_t> snap(w, n);
    std::vector<std::vector<std::uint64_t>> per_scan;
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      for (int k = 0; k < 4; ++k) {
        const auto view = co_await snap.scan(ctx);
        std::vector<std::uint64_t> flat;
        for (const auto& s : view) flat.push_back(s.value_or(0));
        per_scan.push_back(flat);
      }
    });
    for (int pid = 1; pid < n; ++pid) {
      w.spawn(pid, [&, pid](Context ctx) -> ProcessTask {
        for (std::uint64_t i = 1; i <= 6; ++i) {
          co_await snap.update(ctx, pid * 100 + i);
        }
      });
    }
    sim::RandomScheduler sched(seed);
    ASSERT_TRUE(w.run(sched, 10'000'000).all_done);
    // Updaters write increasing values; successive scans by the same
    // process must be slot-wise non-decreasing.
    for (std::size_t k = 1; k < per_scan.size(); ++k) {
      for (std::size_t q = 0; q < per_scan[k].size(); ++q) {
        EXPECT_GE(per_scan[k][q], per_scan[k - 1][q])
            << "seed=" << seed << " scan=" << k << " slot=" << q;
      }
    }
  }
}

TEST(AfekSnapshot, UpdateIncludesEmbeddedScanCost) {
  const int n = 3;
  World w(n);
  AfekSnapshotSim<int> snap(w, n);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await snap.update(ctx, 1); });
  w.run_solo(0);
  // Solo update: one embedded scan (2n reads, clean first try) + own-slot
  // read + write.
  EXPECT_EQ(w.counts(0).reads, static_cast<std::uint64_t>(2 * n + 1));
  EXPECT_EQ(w.counts(0).writes, 1u);
}

}  // namespace
}  // namespace apram
