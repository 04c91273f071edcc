// Sim-vs-rt access parity for the objects written once over the backend
// concept: the same template, run solo as pid 0 over both backends, performs
// the same register accesses. RtProbe counts a CAS apart from the writes,
// so the comparison is rt reads == sim reads and rt writes + cas == sim
// writes (a CAS is one sim write).
#include <gtest/gtest.h>

#include <cstdint>

#include "agreement/approx_agreement.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "core/universal.hpp"
#include "farray/farray.hpp"
#include "objects/fast_counter.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/specs.hpp"
#include "objects/union_find.hpp"
#include "obs/metrics.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/linked_list.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::ProcessTask;
using sim::World;

// The coroutine type a backend's Ctx runs, so one generic op sequence can
// name its return type (a coroutine lambda cannot deduce it).
template <class Ctx>
struct BackendOf;
template <>
struct BackendOf<sim::Context> {
  using type = api::SimBackend;
};
template <>
struct BackendOf<api::RtBackend::Ctx> {
  using type = api::RtBackend;
};
template <class Ctx>
using VoidCoro = typename BackendOf<Ctx>::type::template Coro<void>;

// For n in {2, 4, 8}: builds Obj<B>(mem, n, args...) over each backend,
// runs `ops(obj, ctx)` solo as pid 0, and compares the access counts.
template <template <class> class Obj, class Ops, class... Args>
void expect_same_accesses(Ops ops, Args... args) {
  for (int n : {2, 4, 8}) {
    World w(n);
    Obj<api::SimBackend> sim_obj(w, n, args...);
    w.spawn(0, [&](Context ctx) -> ProcessTask {
      co_await ops(sim_obj, ctx);
    });
    ASSERT_TRUE(w.run_solo(0).all_done) << "n=" << n;
    const auto sim_counts = w.counts(0);
    ASSERT_GT(sim_counts.reads + sim_counts.writes, 0u) << "n=" << n;

    obs::Registry reg;
    api::RtBackend::Mem rt_mem(n);
    Obj<api::RtBackend> rt_obj(rt_mem, n, args...);
    rt_mem.attach_obs(reg, "obj");
    ops(rt_obj, api::RtBackend::Ctx{0}).get();
    const std::uint64_t rt_reads = reg.counter("rt.obj.reads").value();
    const std::uint64_t rt_writes = reg.counter("rt.obj.writes").value();
    const std::uint64_t rt_cas = reg.counter("rt.obj.cas").value();
    EXPECT_EQ(rt_reads, sim_counts.reads) << "n=" << n;
    EXPECT_EQ(rt_writes + rt_cas, sim_counts.writes) << "n=" << n;
  }
}

template <class B>
using Afek = snapshot::AfekSnapshot<B, std::int64_t>;
template <class B>
using DoubleCollect = snapshot::DoubleCollectSnapshot<B, std::int64_t>;
template <class B>
using Snapshot = snapshot::AtomicSnapshot<B, std::int64_t>;
template <class B>
using Universal = PaperUniversal<B, CounterSpec>;
template <class B>
using TreeScan = snapshot::TreeScan<B, MaxLattice<std::int64_t>>;
template <class B>
using SumFArray = farray::FArray<B, std::int64_t, SumCombiner<std::int64_t>>;

TEST(SimRtParity, AfekSnapshot) {
  expect_same_accesses<Afek>(
      [](auto& snap, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await snap.update(ctx, 7);
        (void)co_await snap.scan(ctx);
      });
}

TEST(SimRtParity, DoubleCollectSnapshot) {
  expect_same_accesses<DoubleCollect>(
      [](auto& snap, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await snap.update(ctx, 7);
        (void)co_await snap.scan(ctx);
      });
}

TEST(SimRtParity, AtomicSnapshot) {
  const auto ops = [](auto& snap, auto ctx) -> VoidCoro<decltype(ctx)> {
    co_await snap.update(ctx, 7);
    (void)co_await snap.scan(ctx);
    (void)co_await snap.update_and_scan(ctx, 9);
  };
  expect_same_accesses<Snapshot>(ops);
  expect_same_accesses<Snapshot>(ops, ScanMode::kPlain);
}

TEST(SimRtParity, TreeScan) {
  expect_same_accesses<TreeScan>(
      [](auto& tree, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await tree.update(ctx, 5);
        co_await tree.update(ctx, 3);  // self-covered: no access
        (void)co_await tree.scan(ctx);
      });
}

TEST(SimRtParity, FArray) {
  expect_same_accesses<SumFArray>(
      [](auto& fa, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await fa.write(ctx, 5);
        (void)co_await fa.read_f(ctx);
      });
}

TEST(SimRtParity, FastCounter) {
  expect_same_accesses<FastCounter>(
      [](auto& ctr, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await ctr.inc(ctx, 5);
        co_await ctr.dec(ctx, 2);
        (void)co_await ctr.read(ctx);
      });
}

TEST(SimRtParity, ApproxAgreement) {
  expect_same_accesses<ApproxAgreement>(
      [](auto& aa, auto ctx) -> VoidCoro<decltype(ctx)> {
        (void)co_await aa.decide(ctx, 0.5);
      },
      /*epsilon=*/0.1);
}

TEST(SimRtParity, PolylogQueue) {
  expect_same_accesses<PolylogQueue>(
      [](auto& q, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await q.enqueue(ctx, 7);
        (void)co_await q.dequeue(ctx);
        (void)co_await q.dequeue(ctx);
      });
}

TEST(SimRtParity, UnionFind) {
  expect_same_accesses<UnionFind>(
      [](auto& uf, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await uf.unite(ctx, 3, 5);
        (void)co_await uf.find(ctx, 5);
        (void)co_await uf.num_sets(ctx);
      },
      /*universe=*/8);
}

// SortedSet's Link CAS registers are arena-backed on rt.
TEST(SimRtParity, SortedSet) {
  expect_same_accesses<universal2::SortedSet>(
      [](auto& set, auto ctx) -> VoidCoro<decltype(ctx)> {
        (void)co_await set.insert(ctx, 5);
        (void)co_await set.insert(ctx, 3);
        (void)co_await set.contains(ctx, 5);
        (void)co_await set.remove(ctx, 5);
        (void)co_await set.contains(ctx, 5);
      },
      /*capacity_per_proc=*/8);
}

TEST(SimRtParity, Counter2) {
  expect_same_accesses<universal2::Counter2>(
      [](auto& c, auto ctx) -> VoidCoro<decltype(ctx)> {
        co_await c.inc(ctx, 5);
        co_await c.dec(ctx, 2);
        (void)co_await c.read(ctx);
      });
}

TEST(SimRtParity, UniversalConstruction) {
  expect_same_accesses<Universal>(
      [](auto& u, auto ctx) -> VoidCoro<decltype(ctx)> {
        (void)co_await u.execute(ctx, CounterSpec::inc(4));
        (void)co_await u.execute(ctx, CounterSpec::read());
      });
}

}  // namespace
}  // namespace apram
