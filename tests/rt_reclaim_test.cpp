// Churn soak: bounded-memory certification for the rt versioned arena.
//
// The version arena backs every register whose value is too large to
// inline, and its whole claim is that memory is proportional to CONCURRENT
// HOLDERS, never to write count. These tests hammer that claim three ways
// and measure it two ways:
//
//   * live-version accounting — sampled concurrently from inside the run,
//     per register: live_versions must stay ≤ readers + writers + O(1)
//     (small slack for in-flight allocations), never drift with the write
//     count;
//   * process RSS from /proc/self/status — flat across epochs: each epoch
//     re-runs the same churn, so any per-write leak compounds visibly.
//
// The fault-campaign variant parks a reader BETWEEN acquire and dereference
// (fault::StallPoint::kHold) while a writer churns hundreds of versions past
// it: the pinned version must stay intact (checksummed payload) and the
// arena must keep recycling everything else around the pin.
//
// Epoch lengths are count-based, not time-based, so the soak is bounded
// wall-time on any machine (including the 1-CPU CI runner) and ASan/TSan
// runs simply take proportionally longer.
//
// On teardown the suite writes rt_reclaim.metrics.json (obs flat-JSON
// schema) with the soak's gauges — the reclaim-soak CI job uploads it as an
// artifact and asserts the RSS ceiling from it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "fault/rt_inject.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/tree_snapshot.hpp"

namespace apram::rt {
namespace {

// Sanitizer allocators break the RSS-flatness assertion by design: ASan
// parks every freed block in a quarantine (256 MB by default) before real
// reuse, so recycling payloads inflates RSS until the quarantine caps out,
// and TSan's shadow has the same shape. Under sanitizers the live-version
// accounting (plus LSan itself at exit) carries the leak check; the plain
// build asserts RSS flatness directly.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif
#else
constexpr bool kSanitizedAllocator = false;
#endif

// VmRSS of this process in kilobytes (0 if /proc is unavailable — the
// RSS-based assertions then auto-pass and the accounting assertions carry
// the test).
std::uint64_t vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::uint64_t kb = 0;
      for (char c : line) {
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
      return kb;
    }
  }
  return 0;
}

// Soak-wide gauges, exported as the CI artifact on teardown.
obs::Registry& soak_registry() {
  static obs::Registry reg;
  return reg;
}

class ReclaimSoakEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    soak_registry().gauge("soak.final_rss_kb").set(
        static_cast<std::int64_t>(vm_rss_kb()));
    // artifact_path keeps source-dir invocations from leaking the file
    // into the tree ($APRAM_ARTIFACT_DIR, else the test binary's dir).
    obs::write_metrics_json(obs::artifact_path("rt_reclaim.metrics.json"),
                            soak_registry(), nullptr, "rt_reclaim_soak");
  }
};

[[maybe_unused]] const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new ReclaimSoakEnv);

// Tracks the worst live_versions() seen by concurrent samplers.
struct LiveWatermark {
  std::atomic<std::uint64_t> max{0};
  void sample(std::uint64_t v) {
    std::uint64_t cur = max.load(std::memory_order_relaxed);
    while (v > cur && !max.compare_exchange_weak(cur, v,
                                                 std::memory_order_relaxed)) {
    }
  }
};

// ---------------------------------------------------------------------------
// SWMR churn: one writer republishing a heap-heavy payload, n-1 readers
// hammering the read path and sampling the live-version watermark.
// ---------------------------------------------------------------------------

TEST(ReclaimSoak, SwmrChurnKeepsLiveVersionsAndRssFlat) {
  constexpr int kThreads = 4;            // 1 writer + 3 readers
  constexpr int kEpochs = 6;
  constexpr std::uint64_t kWrites = 3000;
  constexpr std::size_t kPayloadWords = 128;  // ~1 KiB/version: leaks compound

  SWMRRegister<std::vector<std::uint64_t>> reg(
      std::vector<std::uint64_t>(kPayloadWords, 0));
  LiveWatermark peak;
  std::uint64_t rss_after_first_epoch = 0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::atomic<bool> done{false};
    // Written values are globally monotone (base + i), not per-epoch: a
    // reader that catches the previous epoch's leftover version before this
    // epoch's writer publishes must not see its monotonicity "violated".
    const std::uint64_t base = static_cast<std::uint64_t>(epoch) * kWrites;
    parallel_run(kThreads, [&](int pid) {
      if (pid == 0) {
        for (std::uint64_t i = 1; i <= kWrites; ++i) {
          reg.write(std::vector<std::uint64_t>(kPayloadWords, base + i));
        }
        done.store(true, std::memory_order_release);
      } else {
        std::uint64_t last = 0;
        while (!done.load(std::memory_order_acquire)) {
          const auto v = reg.read();
          ASSERT_EQ(v.size(), kPayloadWords);
          ASSERT_EQ(v.front(), v.back());  // versions are internally uniform
          ASSERT_GE(v.front(), last);      // single writer => monotone
          last = v.front();
          peak.sample(reg.reclaim_stats().live_versions());
        }
      }
    });
    if (epoch == 0) rss_after_first_epoch = vm_rss_kb();
  }

  const auto s = reg.reclaim_stats();
  EXPECT_EQ(s.allocated, 1u + kWrites * kEpochs);

  const std::uint64_t rss_final = vm_rss_kb();
  // Live versions ≤ readers + writers + O(1): each reader holds ≤ 1 version
  // at a time, the writer ≤ 2 (a fresh slot and the outgoing version it is
  // still transferring), plus the published one. With a single writer every
  // slot is charged to that writer's counter, which is exact when loaded,
  // so a concurrent sample is never skewed.
  const std::uint64_t bound = kThreads + 4;
  EXPECT_LE(peak.max.load(), bound);
  EXPECT_LE(s.live_versions(), 2u);  // quiescent: published (+ slack)
  // recycled == allocated − (distinct slots ever used); distinct is bounded
  // by the peak concurrent demand, never the write count.
  EXPECT_GE(s.recycled, s.allocated - 32);

  // RSS flat across epochs: a per-write leak would add ~3 MiB per epoch
  // (kWrites × 1 KiB); allow generous allocator noise far below that.
  if (!kSanitizedAllocator && rss_after_first_epoch != 0 && rss_final != 0) {
    EXPECT_LE(rss_final, rss_after_first_epoch + 4096)
        << "RSS grew across identical churn epochs — per-write leak?";
  }

  soak_registry().gauge("soak.swmr.peak_live_versions")
      .set(static_cast<std::int64_t>(peak.max.load()));
  soak_registry().gauge("soak.swmr.recycled")
      .set(static_cast<std::int64_t>(s.recycled));
  soak_registry().gauge("soak.swmr.rss_epoch1_kb")
      .set(static_cast<std::int64_t>(rss_after_first_epoch));
  soak_registry().gauge("soak.swmr.rss_final_kb")
      .set(static_cast<std::int64_t>(rss_final));
}

// ---------------------------------------------------------------------------
// CAS churn: every thread races compare_exchange on one multi-writer
// register. Losers must return their slots immediately (failed-CAS cleanup);
// the seq payload proves exactly one winner per transition.
// ---------------------------------------------------------------------------

struct SeqVal {
  std::uint64_t seq = 0;
  std::uint64_t author = 0;
  std::vector<std::uint64_t> blob;  // heap payload so loser leaks show in RSS
  friend bool operator==(const SeqVal& a, const SeqVal& b) {
    return a.seq == b.seq && a.author == b.author;
  }
};

TEST(ReclaimSoak, CasChurnCleansUpLosersAndConserves) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAttemptsPerThread = 4000;
  constexpr std::size_t kBlobWords = 64;

  CASValueRegister<SeqVal> reg(kThreads, SeqVal{0, 0, {}});
  LiveWatermark peak;
  std::vector<std::uint64_t> wins(kThreads, 0);

  parallel_run(kThreads, [&](int pid) {
    std::uint64_t my_wins = 0;
    for (std::uint64_t i = 0; i < kAttemptsPerThread; ++i) {
      const SeqVal cur = reg.read();
      SeqVal next{cur.seq + 1, static_cast<std::uint64_t>(pid),
                  std::vector<std::uint64_t>(kBlobWords, cur.seq + 1)};
      if (reg.compare_exchange(pid, cur, std::move(next))) ++my_wins;
      if ((i & 63) == 0) peak.sample(reg.reclaim_stats().live_versions());
    }
    wins[static_cast<std::size_t>(pid)] = my_wins;
  });

  std::uint64_t total_wins = 0;
  for (auto w : wins) total_wins += w;
  const SeqVal last = reg.read();
  // Conservation: each successful CAS advances seq by exactly one.
  EXPECT_EQ(last.seq, total_wins);
  // Each of one thread's failures implies a distinct win by another thread
  // inside that attempt's window, so total wins ≥ one thread's attempts.
  EXPECT_GE(total_wins, kAttemptsPerThread);

  const auto s = reg.reclaim_stats();
  // Every attempt allocated at most one slot; every loser's slot and every
  // superseded version must be back on a free list at quiescence. A CASer
  // can hold its acquired version AND a prepared slot simultaneously, hence
  // the 2× in the in-flight bound.
  EXPECT_LE(s.live_versions(), 2u);
  EXPECT_LE(peak.max.load(), 2u * kThreads + 4);

  soak_registry().gauge("soak.cas.peak_live_versions")
      .set(static_cast<std::int64_t>(peak.max.load()));
  soak_registry().gauge("soak.cas.acquire_contention")
      .set(static_cast<std::int64_t>(s.acquire_contention));
  soak_registry().gauge("soak.cas.wins")
      .set(static_cast<std::int64_t>(total_wins));
}

// ---------------------------------------------------------------------------
// Per-writer accounting under CAS churn: each slot is charged to its owning
// writer's counters and stats() sums the writers. At quiescence the sums are
// exact; a concurrent sample loads the writers one after another, and must
// still stay within the in-flight bound.
// ---------------------------------------------------------------------------

TEST(ReclaimSoak, CasChurnPerWriterCountersAreExactAtQuiescence) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAttemptsPerThread = 4000;
  constexpr std::uint64_t kAttempts = kThreads * kAttemptsPerThread;

  CASValueRegister<SeqVal> reg(kThreads, SeqVal{0, 0, {}});
  // Yields at access boundaries interleave the writers even where the
  // scheduler would run them one after another on one CPU.
  fault::RtInjectOptions opts;
  opts.yield_prob = 0.5;
  fault::RtInjector inj(opts);
  reg.attach_injector(&inj);
  LiveWatermark peak;
  std::atomic<std::uint64_t> wins{0};

  parallel_run(kThreads, [&](int pid) {
    std::uint64_t my_wins = 0;
    for (std::uint64_t i = 0; i < kAttemptsPerThread; ++i) {
      const SeqVal cur = reg.read();
      SeqVal next{cur.seq + 1, static_cast<std::uint64_t>(pid), {}};
      if (reg.compare_exchange(pid, cur, std::move(next))) ++my_wins;
      if ((i & 7) == 0) peak.sample(reg.reclaim_stats().live_versions());
    }
    wins.fetch_add(my_wins, std::memory_order_relaxed);
  });

  reg.attach_injector(nullptr);
  const auto s = reg.reclaim_stats();
  EXPECT_EQ(reg.read().seq, wins.load());
  EXPECT_LT(wins.load(), kAttempts);  // the writers did race
  // Only the published version is outside the free lists.
  EXPECT_EQ(s.live_versions(), 1u);
  // Every win superseded one version, and its last holder retired it.
  EXPECT_EQ(s.retired, wins.load());
  // The initial version, one per win, and one per install lost after a
  // matching compare; an attempt allocates at most one slot.
  EXPECT_GE(s.allocated, 1 + wins.load());
  EXPECT_LE(s.allocated, 1 + kAttempts);
  // Fresh slots (allocated − recycled) follow the peak concurrent demand,
  // not the attempt count: a writer draws a fresh slot only when all of its
  // slots are live — at most the published one, one held by each thread,
  // its own prepared slot, and one in each thread's push window.
  EXPECT_LE(s.recycled, s.allocated);
  EXPECT_LE(s.allocated - s.recycled,
            static_cast<std::uint64_t>(kThreads) * (2 * kThreads + 2) + 1);
  EXPECT_LE(peak.max.load(), 2u * kThreads + 4);

  soak_registry().gauge("soak.cas_writers.peak_live_versions")
      .set(static_cast<std::int64_t>(peak.max.load()));
  soak_registry().gauge("soak.cas_writers.fresh_slots")
      .set(static_cast<std::int64_t>(s.allocated - s.recycled));
  soak_registry().gauge("soak.cas_writers.wins")
      .set(static_cast<std::int64_t>(wins.load()));
}

// ---------------------------------------------------------------------------
// Algorithm-level churn: a whole TreeSnapshotRT (CAS registers at internal
// nodes, SWMR at the leaves) under update/scan load, end to end through the
// RtBackend Mem — the bound must hold summed over every register of a real
// structure, not just a lone register.
// ---------------------------------------------------------------------------

TEST(ReclaimSoak, TreeSnapshotChurnStaysBounded) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 800;

  snapshot::TreeSnapshotRT<std::uint64_t> snap(kThreads);
  parallel_run(kThreads, [&](int pid) {
    for (int i = 1; i <= kOpsPerThread; ++i) {
      snap.update(pid, static_cast<std::uint64_t>(i));
      if ((i & 15) == 0) {
        const auto view = snap.scan(pid);
        ASSERT_EQ(view.size(), static_cast<std::size_t>(kThreads));
      }
    }
  });

  const auto s = snap.reclaim_stats();
  // Quiescent: one published version per register plus nothing else. The
  // tree has O(kThreads) registers; write count is ~100× larger, so this
  // bound genuinely separates bounded from unbounded behaviour. (The
  // tagged-vector lattice keeps every register in the arena.)
  EXPECT_GE(s.allocated, static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(s.live_versions(), 4u * kThreads + 8);
  EXPECT_GE(s.recycled + 64, s.allocated - s.live_versions());

  snap.export_reclaim_gauges(soak_registry(), "soak_tree");
}

// ---------------------------------------------------------------------------
// Fault-campaign variant: a reader parked mid-read (between acquire and
// dereference) pins its version across hundreds of writes. The pinned
// version must read back intact, and the arena must keep recycling the
// other versions around the pin.
// ---------------------------------------------------------------------------

TEST(ReclaimSoak, StalledReaderPinsItsVersionAcrossChurn) {
  constexpr std::size_t kPayloadWords = 256;
  constexpr std::uint64_t kChurnWrites = 500;

  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<std::vector<std::uint64_t>> reg(
      std::vector<std::uint64_t>(kPayloadWords, 1));
  reg.attach_injector(&inj);

  std::atomic<bool> victim_read_intact{false};
  std::uint64_t live_during_stall = 0;
  std::uint64_t recycled_during_stall = 0;

  run_with_stall(
      /*num_threads=*/1,
      [&](int) {
        // Parks at the hold point of this read, version acquired.
        const auto v = reg.read();
        bool uniform = v.size() == kPayloadWords;
        for (auto w : v) uniform = uniform && (w == v.front());
        victim_read_intact.store(uniform, std::memory_order_release);
      },
      inj, /*victim=*/0, /*stall_after=*/0,
      [&] {
        // Victim is parked holding version 1. Churn past it: every new
        // version except the pin and the current one must recycle.
        const auto before = reg.reclaim_stats();
        for (std::uint64_t i = 2; i <= 1 + kChurnWrites; ++i) {
          reg.write(std::vector<std::uint64_t>(kPayloadWords, i));
        }
        const auto after = reg.reclaim_stats();
        live_during_stall = after.live_versions();
        recycled_during_stall = after.recycled - before.recycled;
      },
      nullptr, fault::StallPoint::kHold);

  // The pinned version was dereferenced AFTER hundreds of overwrites and
  // must still have been internally uniform — ASan would also flag the
  // use-after-free if the arena had recycled it.
  EXPECT_TRUE(victim_read_intact.load(std::memory_order_acquire));
  EXPECT_EQ(reg.read().front(), 1 + kChurnWrites);

  // While pinned: the held version + the published one + slack. The pin
  // must NOT stop recycling of the churned versions.
  EXPECT_LE(live_during_stall, 4u);
  EXPECT_GE(recycled_during_stall, kChurnWrites - 4);
  // Quiescent: the victim released; only the published version lives.
  EXPECT_LE(reg.reclaim_stats().live_versions(), 2u);

  soak_registry().gauge("soak.stall.live_during_stall")
      .set(static_cast<std::int64_t>(live_during_stall));
  soak_registry().gauge("soak.stall.recycled_during_stall")
      .set(static_cast<std::int64_t>(recycled_during_stall));
}

// Same stall, many readers: several victims would need several injectors
// (one stall at a time), so instead keep one pinned reader and add live
// readers streaming — reclamation must neither free the pin nor block the
// stream.
TEST(ReclaimSoak, StreamingReadersProgressPastAPinnedReader) {
  constexpr std::size_t kPayloadWords = 64;

  fault::RtInjector inj(fault::RtInjectOptions{});
  SWMRRegister<std::vector<std::uint64_t>> reg(
      std::vector<std::uint64_t>(kPayloadWords, 1));
  reg.attach_injector(&inj);

  std::atomic<std::uint64_t> streamed{0};
  run_with_stall(
      /*num_threads=*/3,
      [&](int pid) {
        if (pid == 0) {
          (void)reg.read();  // parks at the hold point
        } else {
          // Uninjected only for pid 0's quota: other pids never match the
          // stall, so they stream freely while the victim is parked.
          for (int i = 0; i < 500; ++i) {
            const auto v = reg.read();
            ASSERT_EQ(v.front(), v.back());
            streamed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      },
      inj, /*victim=*/0, /*stall_after=*/0,
      [&] {
        for (std::uint64_t i = 2; i <= 200; ++i) {
          reg.write(std::vector<std::uint64_t>(kPayloadWords, i));
        }
      },
      nullptr, fault::StallPoint::kHold);

  EXPECT_EQ(streamed.load(), 2u * 500u);
  EXPECT_EQ(reg.read().front(), 200u);
}

}  // namespace
}  // namespace apram::rt
