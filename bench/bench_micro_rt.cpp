// Micro-benchmarks for the real-thread runtime, single-threaded latency:
//   M1 — one register access: word and arena read/write/CAS, an n = 16
//        tagged vector (the snapshot's value) read/write, and a word
//        read/write with an obs::RtProbe attached;
//   M2 — one solo object operation: AtomicSnapshotRT update and scan versus
//        n, TreeScanRT<MaxLattice> raising and self-covered update and scan,
//        FastCounterRT inc and read, and the pieces an rt op is built from:
//        an empty EagerCoro call (one coroutine frame), an op span's begin
//        and end with no tracer, and an FArray read_f (a frame-free root
//        read).
// The multi-thread throughput shapes live in bench_e5_snapshot_compare.
// Each row is the median of bench_common's kTimedPasses timed loops —
// --ops accesses for M1, --ops/100 operations for M2 — after an untimed
// warm-up pass. A read row sums its results in a loop-local and checks the
// sum, so no read can be optimized away and the timed loop stores nothing
// per read.
#include <cstdint>
#include <functional>
#include <iostream>

#include "algebra/combiner.hpp"
#include "api/eager_coro.hpp"
#include "api/rt_backend.hpp"
#include "bench_common.hpp"
#include "farray/farray.hpp"
#include "lattice/lattice.hpp"
#include "objects/fast_counter.hpp"
#include "obs/rt_probe.hpp"
#include "obs/span.hpp"
#include "rt/register.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/tree_snapshot.hpp"

namespace apram::bench {
namespace {

// A word with a pad byte is not its bits, so rt::Register keeps it in the
// version arena: one fetch_add + one fetch_sub per read, alloc/publish/
// transfer per write. That is the toll values too large to inline (tagged
// vectors, universal2 records) pay; the delta against the word rows is
// what inlining saves per access.
struct ArenaWord {
  std::int64_t v;
  bool pad = false;
  friend bool operator==(const ArenaWord& a, const ArenaWord& b) {
    return a.v == b.v;
  }
};
static_assert(!rt::kInlineRegister<ArenaWord>);

std::int64_t value_of(std::int64_t v) { return v; }
std::int64_t value_of(const ArenaWord& w) { return w.v; }

// A coroutine that does nothing, so a call prices one EagerCoro frame: the
// pool allocation, the run to completion and the destroy. noinline keeps
// the compiler from eliding the frame.
[[gnu::noinline]] api::EagerCoro<std::int64_t> empty_coro(std::int64_t v) {
  co_return v;
}

// Times loop(ops) after an untimed loop(ops / 10 + 1), which brings the
// core up to speed and fills the thread's coroutine-frame pool before the
// first timed operation.
double warm_ns_per_op(const std::function<void(std::uint64_t)>& loop,
                      std::uint64_t ops) {
  loop(ops / 10 + 1);
  return ns_per_op([&] { loop(ops); }, ops);
}

// ns per call of op(i), for i = 1, 2, ...
template <class Op>
double op_ns(Op op, std::uint64_t ops) {
  return warm_ns_per_op(
      [&](std::uint64_t k) {
        for (std::uint64_t i = 1; i <= k; ++i) {
          op(static_cast<std::int64_t>(i));
        }
      },
      ops);
}

// ns per call of read(), which must return the same value every time.
template <class Read>
double read_ns(Read read, std::uint64_t ops) {
  const std::int64_t expect = read();
  return warm_ns_per_op(
      [&](std::uint64_t k) {
        std::int64_t acc = 0;
        for (std::uint64_t i = 0; i < k; ++i) acc += read();
        APRAM_CHECK(acc == expect * static_cast<std::int64_t>(k));
      },
      ops);
}

// ns per CAS; solo, so every CAS installs.
template <class T>
double cas_ns(rt::Register<T>& reg, std::uint64_t ops) {
  return warm_ns_per_op(
      [&](std::uint64_t k) {
        std::int64_t v = value_of(reg.read());
        std::uint64_t installed = 0;
        for (std::uint64_t i = 0; i < k; ++i, ++v) {
          installed += reg.compare_exchange(0, T{v}, T{v + 1}) ? 1 : 0;
        }
        APRAM_CHECK(installed == k);
      },
      ops);
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_micro_rt", flags);
  const auto ops = static_cast<std::uint64_t>(flags.get_int("ops", 2'000'000));
  flags.check_unused();
  APRAM_CHECK(ops >= 100);
  const std::uint64_t object_ops = ops / 100;

  Table m1("M1: rt register access cost (one thread)",
           {"register", "access", "ns/op"});
  const auto m1_row = [&](const char* reg, const char* access, double ns) {
    m1.add(reg).add(access).add(ns, 2).end_row();
  };
  {
    rt::Register<std::int64_t> reg(42);
    m1_row("word", "read", read_ns([&] { return reg.read(); }, ops));
    m1_row("word", "write", op_ns([&](std::int64_t i) { reg.write(i); }, ops));
    m1_row("word", "cas", cas_ns(reg, ops));
  }
  {
    rt::Register<ArenaWord> reg(ArenaWord{42});
    m1_row("arena", "read", read_ns([&] { return reg.read().v; }, ops));
    m1_row("arena", "write",
           op_ns([&](std::int64_t i) { reg.write(ArenaWord{i}); }, ops));
    m1_row("arena", "cas", cas_ns(reg, ops));
  }
  {
    // The value an AtomicSnapshotRT at n = 16 reads and writes: an arena
    // register whose read copies the 16-cell vector out of its version (a
    // heap allocation) and whose write takes a copy of the caller's vector.
    using Vec = TaggedVectorLattice<std::int64_t>::Value;
    Vec v(16);
    for (std::size_t q = 0; q < v.size(); ++q) {
      v[q] = {q + 1, static_cast<std::int64_t>(q)};
    }
    rt::Register<Vec> reg(v);
    m1_row("tagged vector n=16", "read",
           read_ns([&] { return reg.read().back().value; }, ops));
    const auto write = [&](std::int64_t i) {
      v.front().value = i;
      reg.write(v);
    };
    m1_row("tagged vector n=16", "write", op_ns(write, ops));
  }
  {
    // The delta against the plain word rows is the probe's hot path.
    obs::Registry& registry = bobs.registry();
    const obs::RtProbe probe{
        .reads = &registry.counter("micro.probed.reads"),
        .writes = &registry.counter("micro.probed.writes"),
        .cas_ops = &registry.counter("micro.probed.cas"),
        .object = 0};
    rt::Register<std::int64_t> reg(42);
    reg.attach_probe(&probe);
    m1_row("word+probe", "read", read_ns([&] { return reg.read(); }, ops));
    m1_row("word+probe", "write",
           op_ns([&](std::int64_t i) { reg.write(i); }, ops));
  }
  m1.print(std::cout);

  // Every slot holds a value before a scan or read is timed.
  Table m2("M2: rt solo object operation cost (pid 0)",
           {"object", "op", "n", "ns/op"});
  const auto m2_row = [&](const char* object, const char* op, int n,
                          double ns) {
    m2.add(object).add(op).add(n).add(ns, 1).end_row();
  };
  for (const int n : {2, 4, 8, 16}) {
    rt::AtomicSnapshotRT<std::int64_t> snap(n);
    for (int p = 0; p < n; ++p) snap.update(p, p);
    m2_row("AtomicSnapshotRT", "update", n,
           op_ns([&](std::int64_t i) { snap.update(0, i); }, object_ops));
    m2_row("AtomicSnapshotRT", "scan (~n^2 reads)", n,
           read_ns([&] { return *snap.scan(0).back(); }, object_ops));
  }
  for (const int n : {4, 16}) {
    // A raising update walks its root path (1 + 4h accesses); a
    // self-covered one, a constant below the caller's completed maximum,
    // makes no shared access; a scan is one root read.
    snapshot::TreeScanRT<MaxLattice<std::int64_t>> tree(n);
    for (int p = 0; p < n; ++p) tree.update(p, p);
    std::int64_t top = n;  // op_ns restarts i on every pass
    m2_row("TreeScanRT<Max>", "update raising", n,
           op_ns([&](std::int64_t) { tree.update(0, ++top); }, object_ops));
    m2_row("TreeScanRT<Max>", "update self-covered", n,
           op_ns([&](std::int64_t) { tree.update(0, 1); }, object_ops));
    m2_row("TreeScanRT<Max>", "scan", n,
           read_ns([&] { return tree.scan(0); }, object_ops));
  }
  for (const int n : {4, 16}) {
    rt::FastCounterRT ctr(n);
    for (int p = 0; p < n; ++p) ctr.inc(p, 1);
    m2_row("FastCounterRT", "inc", n,
           op_ns([&](std::int64_t) { ctr.inc(0, 1); }, object_ops));
    m2_row("FastCounterRT", "read", n,
           read_ns([&] { return ctr.read(0); }, object_ops));
  }
  {
    // The pieces, priced alone. The span row's barrier keeps the compiler
    // from hoisting the ambient-tracer check out of the timed loop.
    const auto piece_row = [&](const char* piece, const char* op, double ns) {
      m2.add(piece).add(op).add("-").add(ns, 1).end_row();
    };
    piece_row("EagerCoro<int64>", "empty call",
              read_ns([] { return empty_coro(1).get(); }, object_ops));
    const auto span_pair = [](std::int64_t) {
      obs::rt_op_begin(obs::OpKind::kUser);
      obs::rt_op_end(obs::OpKind::kUser);
      asm volatile("" ::: "memory");
    };
    piece_row("op span, no tracer", "begin+end", op_ns(span_pair, object_ops));
    constexpr int n = 4;
    api::RtBackend::Mem mem(n);
    farray::FArray<api::RtBackend, std::int64_t, SumCombiner<std::int64_t>> fa(
        mem, n);
    for (int p = 0; p < n; ++p) fa.write(api::RtBackend::Ctx{p}, p + 1).get();
    m2_row("FArray<Sum>", "read_f", n,
           read_ns([&] { return fa.read_f(api::RtBackend::Ctx{0}).get(); },
                   object_ops));
  }
  m2.print(std::cout);

  bobs.emit();
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
