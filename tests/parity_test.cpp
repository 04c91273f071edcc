// Sim-vs-rt access parity for the objects written once over the backend
// concept: the same template, run solo as pid 0 over both backends, performs
// the same register accesses. RtProbe counts a CAS apart from the writes,
// so the comparison is rt reads == sim reads and rt writes + cas == sim
// writes (a CAS is one sim write). Both runs are also traced, and the two
// event sequences must agree in every field but the timestamp: register ids
// and op ids are creation order on both sides, so the same accesses carry
// the same ids inside the same spans.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

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
#include "obs/trace.hpp"
#include "rt/thread_harness.hpp"
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

// Every field of an event but `when` (sim steps vs rt ns): pid, kind,
// object, arg, op.
using Untimed = std::tuple<int, int, int, std::uint64_t, std::uint64_t>;

std::vector<Untimed> untimed(const obs::Tracer& tracer) {
  std::vector<Untimed> out;
  for (const obs::TraceEvent& ev : tracer.events()) {
    out.emplace_back(ev.pid, static_cast<int>(ev.kind), ev.object, ev.arg,
                     ev.op);
  }
  return out;
}

// Builds Obj<B>(mem, n, args...) over each backend, runs `ops(obj, ctx)`
// solo as pid 0, and compares the access counts and the traces.
template <template <class> class Obj, class Ops, class... Args>
void expect_same_accesses_at(int n, Ops ops, Args... args) {
  constexpr std::size_t kRing = 1 << 14;
  obs::Tracer sim_tracer(n, kRing);
  World w(n, {.tracer = &sim_tracer});
  Obj<api::SimBackend> sim_obj(w, n, args...);
  w.spawn(0, [&](Context ctx) -> ProcessTask { co_await ops(sim_obj, ctx); });
  ASSERT_TRUE(w.run_solo(0).all_done) << "n=" << n;
  const auto sim_counts = w.counts(0);
  ASSERT_GT(sim_counts.reads + sim_counts.writes, 0u) << "n=" << n;

  obs::Registry reg;
  obs::Tracer rt_tracer(n, kRing);
  api::RtBackend::Mem rt_mem(n);
  Obj<api::RtBackend> rt_obj(rt_mem, n, args...);
  rt_mem.attach_obs(reg, "obj", &rt_tracer);
  rt::parallel_run(
      1, [&](int pid) { ops(rt_obj, api::RtBackend::Ctx{pid}).get(); },
      &rt_tracer);
  const std::uint64_t rt_reads = reg.counter("rt.obj.reads").value();
  const std::uint64_t rt_writes = reg.counter("rt.obj.writes").value();
  const std::uint64_t rt_cas = reg.counter("rt.obj.cas").value();
  EXPECT_EQ(rt_reads, sim_counts.reads) << "n=" << n;
  EXPECT_EQ(rt_writes + rt_cas, sim_counts.writes) << "n=" << n;

  ASSERT_EQ(sim_tracer.dropped() + rt_tracer.dropped(), 0u) << "n=" << n;
  EXPECT_EQ(untimed(sim_tracer), untimed(rt_tracer)) << "n=" << n;
}

// The same comparison for n in {2, 4, 8}.
template <template <class> class Obj, class Ops, class... Args>
void expect_same_accesses(Ops ops, Args... args) {
  for (int n : {2, 4, 8}) expect_same_accesses_at<Obj>(n, ops, args...);
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
        (void)co_await tree.update_and_scan(ctx, 4);
        (void)co_await tree.scan(ctx);
      });
}

// n = 1 too: its root is the single leaf, so read_f takes the leaf branch
// of the root-read awaiter on both backends.
TEST(SimRtParity, FArray) {
  const auto ops = [](auto& fa, auto ctx) -> VoidCoro<decltype(ctx)> {
    co_await fa.write(ctx, 5);
    (void)co_await fa.read_f(ctx);
  };
  expect_same_accesses_at<SumFArray>(1, ops);
  expect_same_accesses<SumFArray>(ops);
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
