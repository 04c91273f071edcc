// Real-thread stress tests with post-hoc linearizability checking.
//
// Threads hammer the rt objects while a HistoryRecorder timestamps every
// operation's invocation/response window from its own clock; the recorded
// histories then go through the same Wing–Gong checker the simulator
// histories use.
// On a single core these interleavings come from preemption; on many cores
// from true parallelism — either way the checker accepts only genuinely
// linearizable behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/fast_counter.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/specs.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/rt.hpp"
#include "util/rng.hpp"

namespace apram::rt {
namespace {

using C = CounterSpec;

TEST(RtStress, FastCounterHistoriesAreLinearizable) {
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3;
    FastCounterRT ctr(n);
    HistoryRecorder<C> rec;
    parallel_run(n, [&](int pid) {
      for (int i = 0; i < 3; ++i) {
        {
          const auto tok = rec.begin(pid, C::inc(1));
          ctr.inc(pid, 1);
          rec.end(tok, 0);
        }
        {
          const auto tok = rec.begin(pid, C::read());
          const std::int64_t v = ctr.read(pid);
          rec.end(tok, v);
        }
      }
    });
    auto history = rec.take();
    ASSERT_LE(history.size(), 64u);
    EXPECT_TRUE(is_linearizable<C>(std::move(history))) << "trial " << trial;
  }
}

TEST(RtStress, FastCounterConservationUnderLoad) {
  const int n = 4;
  FastCounterRT ctr(n);
  ThroughputRun tr(n);
  (void)tr.run(std::chrono::milliseconds(60), [&](int pid) {
    ctr.inc(pid, 1);
  });
  std::uint64_t total = 0;
  for (auto c : tr.ops_per_thread()) total += c;
  EXPECT_EQ(ctr.read(0), static_cast<std::int64_t>(total));
}

// universal2's Counter2 under an inc/dec/reset/read mix, on the fast path,
// with every mutation forced through announce, help and retire, and with
// fast-path and announced installs mixed (one lost fast CAS announces).
TEST(RtStress, Counter2HistoriesAreLinearizable) {
  using universal2::Counter2RT;
  Counter2RT::Config slow;
  slow.max_fast_attempts = 0;
  slow.help_period = 1;
  Counter2RT::Config mixed;
  mixed.max_fast_attempts = 1;
  mixed.help_period = 1;
  for (const Counter2RT::Config& cfg : {Counter2RT::Config{}, slow, mixed}) {
    for (int trial = 0; trial < 40; ++trial) {
      const int n = 3;
      Counter2RT ctr(n, cfg);
      HistoryRecorder<C> rec;
      parallel_run(n, [&](int pid) {
        Rng rng(static_cast<std::uint64_t>(trial) * 131 +
                static_cast<std::uint64_t>(pid));
        for (int i = 0; i < 4; ++i) {
          const std::uint64_t pick = rng.below(6);
          if (pick <= 1) {
            const std::int64_t by = rng.range(1, 3);
            const auto tok = rec.begin(pid, C::inc(by));
            rec.end(tok, ctr.inc(pid, by));
          } else if (pick == 2) {
            const std::int64_t by = rng.range(1, 2);
            const auto tok = rec.begin(pid, C::dec(by));
            rec.end(tok, ctr.dec(pid, by));
          } else if (pick == 3) {
            const std::int64_t to = rng.range(0, 5);
            const auto tok = rec.begin(pid, C::reset(to));
            rec.end(tok, ctr.reset(pid, to));
          } else {
            const auto tok = rec.begin(pid, C::read());
            rec.end(tok, ctr.read(pid));
          }
        }
      });
      EXPECT_TRUE(is_linearizable<C>(rec.take()))
          << "attempts=" << cfg.max_fast_attempts << " trial=" << trial;
    }
  }
}

TEST(RtStress, PolylogQueueHistoriesAreLinearizable) {
  using Q = QueueSpec;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 4;
    PolylogQueueRT q(n);
    HistoryRecorder<Q> rec;
    parallel_run(n, [&](int pid) {
      for (int i = 0; i < 3; ++i) {
        {
          const std::int64_t v = pid * 100 + i;
          const auto tok = rec.begin(pid, Q::enq(v));
          q.enqueue(pid, v);
          rec.end(tok, 0);
        }
        {
          const auto tok = rec.begin(pid, Q::deq());
          const std::int64_t got = q.dequeue(pid);
          rec.end(tok, got);
        }
      }
    });
    EXPECT_TRUE(is_linearizable<Q>(rec.take())) << "trial " << trial;
  }
}

template <class Snapshot>
void run_snapshot_lincheck_stress(int trials) {
  for (int trial = 0; trial < trials; ++trial) {
    const int n = 3;
    Snapshot snap(n);
    HistoryRecorder<SnapshotSpec> rec;
    parallel_run(n, [&](int pid) {
      for (int i = 0; i < 2; ++i) {
        {
          const std::int64_t v = pid * 100 + i;
          const auto tok = rec.begin(pid, SnapshotSpec::update(pid, v));
          snap.update(pid, v);
          rec.end(tok, {});
        }
        {
          const auto tok = rec.begin(pid, SnapshotSpec::scan());
          const auto view = snap.scan(pid);
          std::vector<std::int64_t> flat;
          for (const auto& s : view) flat.push_back(s.value_or(-1));
          rec.end(tok, flat);
        }
      }
    });
    auto history = rec.take();
    EXPECT_TRUE(is_linearizable<SnapshotSpec>(std::move(history)))
        << "trial " << trial;
  }
}

TEST(RtStress, LatticeScanSnapshotHistoriesAreLinearizable) {
  run_snapshot_lincheck_stress<AtomicSnapshotRT<std::int64_t>>(8);
}

TEST(RtStress, AfekSnapshotHistoriesAreLinearizable) {
  run_snapshot_lincheck_stress<AfekSnapshotRT<std::int64_t>>(8);
}

TEST(RtStress, TreeSnapshotHistoriesAreLinearizable) {
  run_snapshot_lincheck_stress<snapshot::TreeSnapshotRT<std::int64_t>>(8);
}

// A MaxLattice TreeScan is a max register. Values drawn from {0..3} make
// most updates self-covered (no shared access); a scan's ⊥ reads as the
// spec's 0.
TEST(RtStress, TreeScanMaxRegisterHistoriesAreLinearizable) {
  using S = MaxRegisterSpec;
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 3;
    snapshot::TreeScanRT<MaxLattice<std::int64_t>> tree(n);
    HistoryRecorder<S> rec;
    parallel_run(n, [&](int pid) {
      Rng rng(static_cast<std::uint64_t>(trial) * 131 +
              static_cast<std::uint64_t>(pid));
      for (int i = 0; i < 6; ++i) {
        if (rng.chance(0.6)) {
          const std::int64_t v = rng.range(0, 3);
          const auto tok = rec.begin(pid, S::write_max(v));
          tree.update(pid, v);
          rec.end(tok, 0);
        } else {
          const auto tok = rec.begin(pid, S::read());
          const std::int64_t got = tree.scan(pid);
          rec.end(tok, got == MaxLattice<std::int64_t>::bottom() ? 0 : got);
        }
      }
    });
    EXPECT_TRUE(is_linearizable<S>(rec.take())) << "trial " << trial;
  }
}

TEST(RtStress, TreeScanRootIsMonotoneUnderConcurrentUpdates) {
  // Node monotonicity is the linchpin of the TreeScan linearizability
  // argument; hammer it with real parallelism on the MaxLattice instance.
  // Raising updaters walk every time; updaters drawing from {0..7} are
  // mostly self-covered, and each checks that its scans cover its own
  // largest write.
  for (const bool small_range : {false, true}) {
    const int n = 4;
    snapshot::TreeScanRT<MaxLattice<std::int64_t>> tree(n);
    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};
    parallel_run(n, [&](int pid) {
      if (pid == 0) {
        std::int64_t last = tree.scan(pid);
        for (int k = 0; k < 400; ++k) {
          const std::int64_t v = tree.scan(pid);
          if (v < last) violation.store(true);
          last = v;
        }
        stop.store(true);
      } else {
        Rng rng(static_cast<std::uint64_t>(pid));
        std::int64_t i = 0;
        std::int64_t own_max = MaxLattice<std::int64_t>::bottom();
        while (!stop.load(std::memory_order_acquire)) {
          const std::int64_t v =
              small_range ? rng.range(0, 7) : pid * 1'000'000 + ++i;
          tree.update(pid, v);
          own_max = std::max(own_max, v);
          if (small_range && tree.scan(pid) < own_max) violation.store(true);
        }
      }
    });
    EXPECT_FALSE(violation.load()) << "small_range=" << small_range;
  }
}

TEST(RtStress, AfekSnapshotSequentialBehaviour) {
  AfekSnapshotRT<int> snap(3);
  snap.update(0, 1);
  snap.update(2, 9);
  const auto view = snap.scan(1);
  EXPECT_EQ(view[0], 1);
  EXPECT_FALSE(view[1].has_value());
  EXPECT_EQ(view[2], 9);
}

TEST(RtStress, AfekScanIsMonotoneUnderConcurrentUpdates) {
  const int n = 3;
  AfekSnapshotRT<std::uint64_t> snap(n);
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  parallel_run(n, [&](int pid) {
    if (pid == 0) {
      std::vector<std::uint64_t> last(static_cast<std::size_t>(n), 0);
      for (int k = 0; k < 200; ++k) {
        const auto view = snap.scan(pid);
        for (std::size_t q = 0; q < view.size(); ++q) {
          const std::uint64_t v = view[q].value_or(0);
          if (v < last[q]) violation.store(true);
          last[q] = v;
        }
      }
      stop.store(true);
    } else {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) snap.update(pid, ++i);
    }
  });
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace apram::rt
