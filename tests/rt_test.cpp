// Real-thread runtime tests: SWMR register publication, snapshot scans under
// concurrent updaters, FastCounterRT conservation, approximate agreement
// with real threads, the thread harness itself, and the block pool that
// serves EagerCoro frames.
//
// These run on however many hardware threads exist (including 1); they rely
// on preemptive scheduling, not parallelism, so they are meaningful — if
// less adversarial — on a single core.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <coroutine>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "agreement/approx_spec.hpp"
#include "api/rt_backend.hpp"
#include "farray/farray.hpp"
#include "fault/rt_inject.hpp"
#include "objects/fast_counter.hpp"
#include "objects/polylog_queue.hpp"
#include "obs/metrics.hpp"
#include "rt/reclaim.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/baselines/mutex_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/wait_free_sim.hpp"
#include "util/block_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define APRAM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define APRAM_TEST_ASAN 1
#endif
#endif

namespace apram::rt {
namespace {

TEST(SWMRRegister, InitialValueReadable) {
  SWMRRegister<int> reg(42);
  EXPECT_EQ(reg.read(), 42);
  SWMRRegister<std::string> big("x");
  EXPECT_EQ(big.read(), "x");
  EXPECT_EQ(big.reclaim_stats().allocated, 1u);
}

TEST(SWMRRegister, WriteThenRead) {
  SWMRRegister<std::string> reg("a");
  reg.write("b");
  reg.write("c");
  EXPECT_EQ(reg.read(), "c");
  EXPECT_EQ(reg.reclaim_stats().allocated, 3u);
}

TEST(SWMRRegister, ConcurrentReadersSeeSomeWrittenValue) {
  SWMRRegister<std::uint64_t> reg(0);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> seen_bad(8, 0);
  parallel_run(3, [&](int pid) {
    if (pid == 0) {
      for (std::uint64_t i = 1; i <= 20000; ++i) reg.write(i);
      stop.store(true);
    } else {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t v = reg.read();
        // Single writer writing 1,2,3,...: reads must be monotone per reader.
        if (v < last) ++seen_bad[static_cast<std::size_t>(pid)];
        last = v;
      }
    }
  });
  EXPECT_EQ(seen_bad[1], 0u);
  EXPECT_EQ(seen_bad[2], 0u);
}

// --------------------------------------------------------- reclamation ----

TEST(VersionArena, HeldVersionSurvivesAHundredPublishes) {
  reclaim::VersionArena<std::string> arena(1, "v0");
  const auto ref = arena.acquire();
  for (int i = 1; i <= 100; ++i) {
    arena.publish(arena.alloc(0, "v" + std::to_string(i)));
  }
  // The pin: 100 publications later the acquired version is still intact.
  EXPECT_EQ(arena.get(ref), "v0");
  const auto held = arena.stats();
  EXPECT_EQ(held.allocated, 101u);
  EXPECT_EQ(held.live_versions(), 2u);  // the pin + the published version
  EXPECT_GE(held.recycled, 98u);        // everything else recycled around it

  arena.release(ref);  // last holder out retires the pinned version
  EXPECT_EQ(arena.stats().live_versions(), 1u);
  EXPECT_EQ(arena.stats().retired, held.retired + 1);
}

TEST(VersionArena, DeallocReturnsTheSlotForImmediateReuse) {
  reclaim::VersionArena<int> arena(1, 0);
  const auto before = arena.stats();
  const std::uint32_t a = arena.alloc(0, 1);
  arena.dealloc(a);  // the failed-CAS cleanup path
  const std::uint32_t b = arena.alloc(0, 2);
  EXPECT_EQ(a, b);  // LIFO free list hands the same slot back
  EXPECT_EQ(arena.stats().recycled - before.recycled, 1u);
  arena.dealloc(b);
  EXPECT_EQ(arena.stats().live_versions(), 1u);  // just the published initial
}

TEST(SWMRRegister, MemoryStaysBoundedAcrossManyWrites) {
  SWMRRegister<std::vector<int>> reg(std::vector<int>(8, 0));
  for (int i = 1; i <= 1000; ++i) reg.write(std::vector<int>(8, i));
  EXPECT_EQ(reg.read()[0], 1000);
  EXPECT_EQ(reg.reclaim_stats().allocated, 1001u);
  const auto s = reg.reclaim_stats();
  EXPECT_LE(s.live_versions(), 2u);  // memory ∝ holders, not writes
  EXPECT_GE(s.recycled, 990u);
}

// The arena tests below use a std::string payload: an int would be inline
// and have no versions to count.
TEST(CASValueRegister, FailedValueCompareAllocatesNothing) {
  CASValueRegister<std::string> reg(2, "10");
  const auto before = reg.reclaim_stats();
  EXPECT_FALSE(reg.compare_exchange(1, /*expected=*/"99", "5"));
  EXPECT_EQ(reg.read(), "10");
  EXPECT_EQ(reg.reclaim_stats().allocated, before.allocated);
}

TEST(CASValueRegister, SuccessfulSwapsRecycleSupersededVersions) {
  CASValueRegister<std::string> reg(1, "0");
  for (int i = 1; i <= 200; ++i) {
    EXPECT_TRUE(
        reg.compare_exchange(0, std::to_string(i - 1), std::to_string(i)));
  }
  EXPECT_EQ(reg.read(), "200");
  EXPECT_LE(reg.reclaim_stats().live_versions(), 2u);
}

// ------------------------------------------------------ register cells ----

using Node = farray::Stamped<std::int64_t>;
using api::RtBackend;

// Node and int64 with a pad byte: their bits are not their value, so
// Register keeps them in the arena. operator== is the original's, so the
// same script runs against an inline cell and an arena cell.
struct ArenaNode {
  std::uint64_t seq;
  std::int64_t v;
  bool pad = false;
  friend bool operator==(const ArenaNode& a, const ArenaNode& b) {
    return a.seq == b.seq;
  }
};
struct ArenaWord {
  std::int64_t v;
  bool pad = false;
};

// Which values are inline: words and the stamped double word; anything with
// a heap payload or padding stays in the arena.
static_assert(kInlineRegister<std::int32_t>);
static_assert(kInlineRegister<std::int64_t>);
static_assert(kInlineRegister<Node> == detail::kHaveCas16);
static_assert(!kInlineRegister<ArenaNode>);
static_assert(!kInlineRegister<ArenaWord>);
static_assert(!kInlineRegister<std::vector<std::uint64_t>>);
static_assert(!kInlineRegister<std::string>);
static_assert(kInlineRegister<QueueChain>);
static_assert(kInlineRegister<farray::Stamped<QueueChain>> ==
              detail::kHaveCas16);
using CounterRep = universal2::CounterRep<RtBackend>;
using CounterSim = universal2::WaitFreeSim<RtBackend, CounterRep>;
static_assert(kInlineRegister<CounterRep::Cell> == detail::kHaveCas16);
static_assert(!kInlineRegister<CounterSim::Rec>);
// One class per value type, whatever the role or the cell: both rt names
// and both backend names are Register<T>.
template <class T>
constexpr bool kOneRegisterClass =
    std::is_same_v<SWMRRegister<T>, Register<T>> &&
    std::is_same_v<CASValueRegister<T>, Register<T>> &&
    std::is_same_v<RtBackend::Reg<T>, Register<T>> &&
    std::is_same_v<RtBackend::CasReg<T>, Register<T>>;
static_assert(kOneRegisterClass<std::int64_t>);  // inline
static_assert(kOneRegisterClass<std::string>);   // arena
// A 16-byte value that is not its bits (a double has two zeros) stays in
// the arena: the CAS compares loaded bits.
struct DoubleAndWord {
  double d;
  std::int64_t w;
};
static_assert(!kInlineRegister<DoubleAndWord>);

// The value-compare contract the FArray relies on: Stamped's operator==
// looks at seq alone, and the swap installs `desired` whatever payload
// `expected` carried. Both cells must agree.
template <class V>
void expect_stamp_compare(Register<V>& reg) {
  // Current {5, 41}; expected matches on seq, not on v: wins.
  EXPECT_TRUE(reg.compare_exchange(0, V{5, 0}, V{6, 7}));
  EXPECT_EQ(reg.read().seq, 6u);
  EXPECT_EQ(reg.read().v, 7);
  // Stale seq (payload matches the current one): loses, nothing changes.
  EXPECT_FALSE(reg.compare_exchange(1, V{5, 7}, V{7, 9}));
  EXPECT_EQ(reg.read().seq, 6u);
  EXPECT_EQ(reg.read().v, 7);
}

TEST(Register, CasWinsOnMatchingStampWhateverThePayload) {
  CASValueRegister<Node> inline_reg(2, Node{5, 41});
  expect_stamp_compare(inline_reg);
  CASValueRegister<ArenaNode> arena_reg(2, ArenaNode{5, 41});
  expect_stamp_compare(arena_reg);
}

// The arena's single-writer write() allocates from writer 0's free list,
// whose pop has one consumer, so a register built for several writers
// refuses it.
TEST(RegisterDeathTest, ArenaWriteNeedsASingleWriter) {
  EXPECT_DEATH(CASValueRegister<std::string>(2, "a").write("b"),
               "several writers");
}

// Probe and injector see the same accesses on an inline cell as on an arena
// cell, so sim-vs-rt access parity does not depend on the cell.
struct AccessTally {
  std::uint64_t reads, writes, cas, cas_fail, injected;
  bool operator==(const AccessTally&) const = default;
};

// Runs script(reg, pid) on one harness thread with a probe and an injector
// attached, and returns what they counted.
template <class Reg, class Script>
AccessTally tally(Reg& reg, Script script) {
  obs::Registry registry;
  const obs::RtProbe probe{.reads = &registry.counter("r"),
                           .writes = &registry.counter("w"),
                           .cas_ops = &registry.counter("c"),
                           .cas_failures = &registry.counter("f"),
                           .object = 0};
  fault::RtInjector inj(fault::RtInjectOptions{});
  reg.attach_probe(&probe);
  reg.attach_injector(&inj);
  parallel_run(1, [&](int pid) { script(reg, pid); });
  reg.attach_probe(nullptr);
  reg.attach_injector(nullptr);
  return {registry.counter("r").value(), registry.counter("w").value(),
          registry.counter("c").value(), registry.counter("f").value(),
          inj.accesses(0)};
}

TEST(Register, ProbeAndInjectorCountsMatchTheArena) {
  const auto swmr_script = []<class V>(Register<V>& reg, int) {
    for (std::int64_t i = 1; i <= 5; ++i) {
      (void)reg.read();
      reg.write(V{i});
    }
  };
  SWMRRegister<std::int64_t> inline_swmr(0);
  SWMRRegister<ArenaWord> arena_swmr(ArenaWord{0});
  const AccessTally swmr = tally(inline_swmr, swmr_script);
  EXPECT_EQ(swmr, tally(arena_swmr, swmr_script));
  EXPECT_EQ(swmr, (AccessTally{5, 5, 0, 0, 10}));

  const auto cas_script = []<class V>(Register<V>& reg, int pid) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      (void)reg.read();
      (void)reg.compare_exchange(pid, V{i, 0}, V{i + 1, 0});  // wins
      (void)reg.compare_exchange(pid, V{i, 0}, V{0, -1});     // stale
    }
  };
  CASValueRegister<Node> inline_cas(1, Node{0, 0});
  CASValueRegister<ArenaNode> arena_cas(1, ArenaNode{0, 0});
  const AccessTally cas = tally(inline_cas, cas_script);
  EXPECT_EQ(cas, tally(arena_cas, cas_script));
  EXPECT_EQ(cas, (AccessTally{5, 0, 10, 5, 15}));
}

// Concurrent stamped CASes on the double word: exactly one winner per seq,
// and no reader ever sees a torn value (every install keeps v == -seq).
TEST(Register, StampedCasConservesAndNeverTears) {
  constexpr int kThreads = 4;
  constexpr int kAttempts = 5000;
  CASValueRegister<Node> reg(kThreads, Node{0, 0});
  std::atomic<std::uint64_t> wins{0};
  std::atomic<std::uint64_t> torn{0};
  parallel_run(kThreads, [&](int pid) {
    std::uint64_t my_wins = 0;
    for (int i = 0; i < kAttempts; ++i) {
      const Node cur = reg.read();
      if (cur.v != -static_cast<std::int64_t>(cur.seq)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t next = cur.seq + 1;
      if (reg.compare_exchange(pid, cur,
                               Node{next, -static_cast<std::int64_t>(next)})) {
        ++my_wins;
      }
    }
    wins.fetch_add(my_wins, std::memory_order_relaxed);
  });
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(reg.read().seq, wins.load());
  EXPECT_GE(wins.load(), static_cast<std::uint64_t>(kAttempts));
}

// ---------------------------------------------------------------------------
// BlockPool: EagerCoro frames come from a per-thread cache of heap blocks.
// Tests that count cached blocks run on a fresh thread, whose cache starts
// empty.
// ---------------------------------------------------------------------------

// Records the address of the frame that awaits it, then resumes at once.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

// noinline keeps the compiler from eliding the frame allocations under test.
[[gnu::noinline]] api::EagerCoro<int> inner_frame(void** frame) {
  co_await FrameAddress{frame};
  co_return 1;
}

[[gnu::noinline]] api::EagerCoro<int> outer_frame(void** outer,
                                                  void** inner) {
  co_await FrameAddress{outer};
  const int v = co_await inner_frame(inner);
  co_return v + 1;
}

using BigArg = std::array<unsigned char, 2 * BlockPool::kMaxBlock>;

// The parameter is copied into the frame, so the frame exceeds kMaxBlock.
[[gnu::noinline]] api::EagerCoro<int> big_frame(BigArg arg) {
  co_return arg.front() + arg.back();
}

TEST(BlockPool, NestedEagerCoroCallsReuseCachedBlocks) {
  std::thread([] {
    void* outer1 = nullptr;
    void* inner1 = nullptr;
    EXPECT_EQ(outer_frame(&outer1, &inner1).get(), 2);
    EXPECT_EQ(BlockPool::cached_blocks(), 2u);  // both frames came back
    void* outer2 = nullptr;
    void* inner2 = nullptr;
    EXPECT_EQ(outer_frame(&outer2, &inner2).get(), 2);
    EXPECT_EQ(outer2, outer1);
    EXPECT_EQ(inner2, inner1);
    EXPECT_EQ(BlockPool::cached_blocks(), 2u);
  }).join();
}

TEST(BlockPool, EagerCoroCreatedOnOneThreadIsDestroyedOnAnother) {
  std::optional<api::EagerCoro<int>> coro;
  void* frame = nullptr;
  std::thread([&] { coro.emplace(inner_frame(&frame)); }).join();
  std::thread([&] {
    EXPECT_EQ(coro->get(), 1);
    coro.reset();  // the block joins this thread's cache...
    EXPECT_EQ(BlockPool::cached_blocks(), 1u);
    void* again = nullptr;
    EXPECT_EQ(inner_frame(&again).get(), 1);  // ...and serves its next frame
    EXPECT_EQ(again, frame);
  }).join();
}

TEST(BlockPool, ThreadExitsWithAFullCache) {
  std::thread([] {
    constexpr std::size_t kBytes = 200;
    std::vector<void*> blocks;
    for (std::uint32_t i = 0; i < BlockPool::kMaxCached + 8; ++i) {
      blocks.push_back(BlockPool::allocate(kBytes));
    }
    for (void* b : blocks) BlockPool::deallocate(b, kBytes);
    // The class keeps kMaxCached blocks and the rest go to the heap. The
    // thread then exits with a full cache, which must not leak (LSan checks
    // this in the ASan build).
    EXPECT_EQ(BlockPool::cached_blocks(), BlockPool::kMaxCached);
  }).join();
}

TEST(BlockPool, FrameAboveTheLargestClassRoundTripsThroughTheHeap) {
  std::thread([] {
    BigArg arg{};
    arg.front() = 1;
    arg.back() = 2;
    EXPECT_EQ(big_frame(arg).get(), 3);
    EXPECT_EQ(BlockPool::cached_blocks(), 0u);
  }).join();
}

#ifdef APRAM_TEST_ASAN
TEST(BlockPool, CachedBlocksArePoisonedUnderAsan) {
  std::thread([] {
    constexpr std::size_t kBytes = 100;  // served from the 128-byte class
    void* p = BlockPool::allocate(kBytes);
    BlockPool::deallocate(p, kBytes);
    EXPECT_TRUE(__asan_address_is_poisoned(p));
    EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(p) + 127));
    void* q = BlockPool::allocate(kBytes);
    EXPECT_EQ(q, p);
    EXPECT_FALSE(__asan_address_is_poisoned(q));
    BlockPool::deallocate(q, kBytes);
  }).join();
}
#endif

TEST(ThreadHarness, ParallelRunRunsEveryPid) {
  std::vector<std::atomic<int>> hits(5);
  parallel_run(5, [&](int pid) { hits[static_cast<std::size_t>(pid)] = pid + 1; });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], i + 1);
}

TEST(LatticeScanRT, SequentialJoinSemantics) {
  LatticeScanRT<MaxLattice<std::int64_t>> ls(3);
  ls.write_l(0, 10);
  ls.write_l(1, 30);
  ls.write_l(2, 20);
  EXPECT_EQ(ls.read_max(0), 30);
  EXPECT_EQ(ls.read_max(2), 30);
}

TEST(AtomicSnapshotRT, SequentialUpdateScan) {
  AtomicSnapshotRT<int> snap(3);
  snap.update(0, 5);
  snap.update(2, 7);
  const auto view = snap.scan(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 5);
  EXPECT_FALSE(view[1].has_value());
  EXPECT_EQ(view[2], 7);
}

TEST(AtomicSnapshotRT, ScansAreMonotoneUnderConcurrentUpdates) {
  const int n = 4;
  AtomicSnapshotRT<std::uint64_t> snap(n);
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  parallel_run(n, [&](int pid) {
    if (pid == 0) {
      // Scanner: per-slot values must be non-decreasing across scans
      // (updaters write increasing values; comparable scans => monotone).
      std::vector<std::uint64_t> last(static_cast<std::size_t>(n), 0);
      for (int k = 0; k < 300; ++k) {
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
      while (!stop.load(std::memory_order_acquire)) {
        snap.update(pid, ++i);
      }
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST(AtomicSnapshotRT, ScanSeesOwnPriorUpdate) {
  const int n = 3;
  AtomicSnapshotRT<std::uint64_t> snap(n);
  std::atomic<bool> bad{false};
  parallel_run(n, [&](int pid) {
    for (std::uint64_t i = 1; i <= 200; ++i) {
      snap.update(pid, i);
      const auto view = snap.scan(pid);
      const auto own = view[static_cast<std::size_t>(pid)];
      if (!own.has_value() || *own < i) bad.store(true);
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(FastCounterRT, ConservationUnderConcurrency) {
  const int n = 4, k = 500;
  FastCounterRT ctr(n);
  parallel_run(n, [&](int pid) {
    for (int i = 0; i < k; ++i) ctr.inc(pid, 1);
  });
  EXPECT_EQ(ctr.read(0), n * k);
}

TEST(FastCounterRT, DecrementsBalanceOut) {
  const int n = 4;
  FastCounterRT ctr(n);
  parallel_run(n, [&](int pid) {
    for (int i = 0; i < 100; ++i) {
      ctr.inc(pid, 2);
      ctr.dec(pid, 1);
    }
  });
  EXPECT_EQ(ctr.read(0), n * 100);
}

TEST(DoubleCollectRT, SequentialBehaviour) {
  DoubleCollectSnapshotRT<int> snap(2);
  snap.update(0, 9);
  std::uint64_t attempts = 0;
  const auto view = snap.scan(1, &attempts);
  EXPECT_EQ(view[0], 9);
  EXPECT_EQ(attempts, 1u);
}

TEST(MutexSnapshotRT, SequentialBehaviour) {
  MutexSnapshot<int> snap(2);
  snap.update(1, 4);
  const auto view = snap.scan(0);
  EXPECT_FALSE(view[0].has_value());
  EXPECT_EQ(view[1], 4);
}

TEST(ApproxAgreementRT, ThreadsConvergeWithinEpsilon) {
  const int n = 4;
  const double eps = 1.0 / 128.0;
  ApproxAgreementRT aa(n, eps);
  // Concurrent-participation regime: install all inputs first.
  const std::vector<double> inputs{-3.0, 1.5, 0.25, 2.75};
  for (int p = 0; p < n; ++p) aa.input(p, inputs[static_cast<std::size_t>(p)]);

  std::vector<double> outs(static_cast<std::size_t>(n));
  parallel_run(n, [&](int pid) {
    outs[static_cast<std::size_t>(pid)] = aa.output(pid);
  });
  const RealRange in = range_of(inputs);
  const RealRange out = range_of(outs);
  EXPECT_TRUE(in.contains(out));
  EXPECT_LT(out.size(), eps);
}

TEST(ApproxAgreementRT, RepeatedRunsAlwaysValid) {
  for (int trial = 0; trial < 10; ++trial) {
    const double eps = 0.01;
    ApproxAgreementRT aa(2, eps);
    aa.input(0, 0.0);
    aa.input(1, 1.0);
    std::vector<double> outs(2);
    parallel_run(2, [&](int pid) { outs[static_cast<std::size_t>(pid)] = aa.output(pid); });
    EXPECT_LT(std::fabs(outs[0] - outs[1]), eps) << "trial=" << trial;
    EXPECT_GE(std::min(outs[0], outs[1]), 0.0);
    EXPECT_LE(std::max(outs[0], outs[1]), 1.0);
  }
}

TEST(ThroughputRun, CountsOps) {
  ThroughputRun tr(2);
  std::atomic<std::uint64_t> total{0};
  const double rate = tr.run(std::chrono::milliseconds(50), [&](int) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_GT(rate, 0.0);
  std::uint64_t counted = 0;
  for (auto c : tr.ops_per_thread()) counted += c;
  EXPECT_EQ(counted, total.load());
}

}  // namespace
}  // namespace apram::rt
