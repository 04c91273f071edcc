// TreeScan / TreeSnapshot — wait-free lattice snapshots with polylogarithmic
// updates, as thin clients of the farray tree.
//
// The stamped-CAS tree that powers them — per-process SWMR leaves, CAS
// internal nodes, the double-refresh helping lemma — lives in
// farray/farray.hpp as the reusable FArray<B, T, F> primitive; this header
// instantiates it over a lattice join (JoinCombiner<L>) and keeps the
// snapshot-specific parts:
//
//   update(P, v): if v ≤ P's `reached` (below), return at the call with
//                 no shared access and no coroutine frame; otherwise join v
//                 into P's leaf mirror and farray-write the result (1 write
//                 + root-path refresh).
//   scan():       one root read.
//
// Node monotonicity (why scan is ONE read, not a double-collect — the
// lattice-only property the generic FArray does not promise): leaves are
// owner-joined, so each leaf's value sequence is monotone in the lattice
// order; a successful refresh at u read cur, then the children, then
// installed their join. The previous install's child reads happened before
// this one's node read (release/acquire through the node), and child
// sequences are monotone, so the new join dominates the old value. Root
// values therefore form a chain: any two scans are comparable (the Lemma 32
// property) and an update's contribution appears in every scan that starts
// after the update returns — linearizability by the same argument as
// Theorem 33.
//
// Self-covered updates. The state is the join of every value written, so
// an update the state already covers changes no scan. Each process keeps
// `reached`: the leaf value of its last update whose tree write RETURNED.
// By the helping lemma that value was at the root when the write returned,
// and by node monotonicity every later root read covers it. So an update
// with v ≤ reached returns at once and linearizes at its invocation, where
// the join already covers v. The rule reads only the caller's own completed
// updates (a value covered by another process's write still walks), and
// never the leaf mirror `leaf`, which is set BEFORE the leaf write so that
// the leaf stays monotone: a process revived (World::revive) after crashing
// between its leaf write and its walk has leaf = 999 while the root never
// saw 999, and a leaf-keyed rule would let its update(500) return with 500
// missing from every later scan. A crashed owner's orphaned leaf now
// reaches the root only through a sibling update that walks, not a
// self-covered one; an incomplete update may stay unlinearized. A
// TreeSnapshot update carries a fresh tag, so it is never self-covered.
//
// Step counts (exact for n a power of two; upper bounds otherwise), with
// farray's closed forms farray_write_{solo,max}_accesses and
// farray_read_accesses:
//
//   update, self-covered:  0        (and no coroutine frame: TreeUpdate)
//   update, solo:          1 + 4h   (h = ⌈log2 n⌉)
//   update, contended:     ≤ 1 + 8h
//   scan:                  1
//
// versus Figure 5's n²−1 reads and n+1 writes per operation (§6.2).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "lattice/lattice.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram::snapshot {

// The write-identifying stamp moved to the farray layer with the tree;
// re-exported under its historical name.
using farray::Stamped;

// TreeScan::update's awaitable: empty when the update was self-covered and
// so already done at the call, else holding the walking coroutine, to which
// the awaiter calls forward. A sim coroutine co_awaits it as it would the
// walk. An rt walk ran to completion at the call, so its await is ready and
// get() drains it as EagerCoro::get does.
template <class Walk>
class [[nodiscard]] TreeUpdate {
 public:
  TreeUpdate() = default;
  explicit TreeUpdate(Walk walk) : walk_(std::move(walk)) {}

  bool await_ready() { return !walk_ || walk_->await_ready(); }
  decltype(auto) await_suspend(std::coroutine_handle<> h) {
    return walk_->await_suspend(h);
  }
  void await_resume() {
    if (walk_) walk_->await_resume();
  }

  void get() {
    if (walk_) walk_->get();
  }

 private:
  std::optional<Walk> walk_;
};

template <class B, Semilattice L>
  requires api::BackendFor<B, typename L::Value> &&
           api::CasBackendFor<B, Stamped<typename L::Value>>
class TreeScan {
 public:
  using Value = typename L::Value;
  using Node = Stamped<Value>;
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Tree = farray::FArray<B, Value, JoinCombiner<L>>;

  TreeScan(typename B::Mem& mem, int num_procs) : tree_(mem, num_procs) {
    caches_.reserve(static_cast<std::size_t>(num_procs));
    for (int p = 0; p < num_procs; ++p) {
      caches_.push_back(std::make_unique<Cache>());
    }
  }

  int num_procs() const { return tree_.num_procs(); }
  int height() const { return tree_.height(); }

  // Joins v into the lattice state; on return the contribution is visible
  // at the root (the farray helping lemma). When v ≤ reached the update is
  // done at the call: its span opens and closes here, and it makes no access
  // and no coroutine frame. Otherwise it walks, ≤ 1 + 8·height() accesses,
  // in walk()'s frame. Either way co_await the result, or get() it on rt.
  TreeUpdate<Coro<void>> update(Ctx ctx, Value v) {
    Cache& cache = *caches_[static_cast<std::size_t>(ctx.pid())];
    if (L::leq(v, cache.reached)) {
      ctx.op_begin(obs::OpKind::kTreeUpdate);
      ctx.op_end(obs::OpKind::kTreeUpdate);
      return {};
    }
    return TreeUpdate<Coro<void>>(walk(ctx, cache, std::move(v)));
  }

  // The join of all contributions of updates that completed before the scan
  // started (and possibly some concurrent ones). One register access.
  Coro<Value> scan(Ctx ctx) {
    ctx.op_begin(obs::OpKind::kTreeScan);
    Value v = co_await tree_.read_f(ctx);
    ctx.op_end(obs::OpKind::kTreeScan);
    co_return v;
  }

  Coro<Value> update_and_scan(Ctx ctx, Value v) {
    co_await update(ctx, std::move(v));
    Value out = co_await scan(ctx);
    co_return out;
  }

  // Per-node contention telemetry (forwarded from the tree).
  const obs::NodeContention& contention() const { return tree_.contention(); }
  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    tree_.export_contention_gauges(registry, prefix);
  }

 private:
  struct alignas(64) Cache {
    Value leaf = L::bottom();     // mirror of own leaf (single writer)
    Value reached = L::bottom();  // leaf value of the last returned write
  };

  // The body of an update that is not self-covered: join v into the leaf
  // mirror and farray-write the result. `cache` is this pid's, owned by the
  // object, so it outlives a sim walk that starts at its co_await.
  Coro<void> walk(Ctx ctx, Cache& cache, Value v) {
    ctx.op_begin(obs::OpKind::kTreeUpdate);
    Value nv = L::join(std::move(v), cache.leaf);
    cache.leaf = nv;
    co_await tree_.write(ctx, std::move(nv));
    cache.reached = cache.leaf;
    ctx.op_end(obs::OpKind::kTreeUpdate);
  }

  Tree tree_;
  std::vector<std::unique_ptr<Cache>> caches_;  // [n]
};

// Snapshot object over the tagged-vector lattice (end of §6), tree flavour:
// the TreeScan counterpart of snapshot/atomic_snapshot.hpp's AtomicSnapshot.
template <class B, class T>
class TreeSnapshot {
 public:
  using Lattice = TaggedVectorLattice<T>;
  using LatticeValue = typename Lattice::Value;
  using View = std::vector<std::optional<T>>;
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  TreeSnapshot(typename B::Mem& mem, int num_procs)
      : n_(num_procs),
        scan_(mem, num_procs),
        next_tag_(static_cast<std::size_t>(num_procs)) {
    for (auto& t : next_tag_) t = std::make_unique<Tag>();
  }

  int num_procs() const { return n_; }

  Coro<void> update(Ctx ctx, T v) {
    const int p = ctx.pid();
    const std::uint64_t tag = ++next_tag_[static_cast<std::size_t>(p)]->value;
    LatticeValue s = Lattice::singleton(static_cast<std::size_t>(n_),
                                        static_cast<std::size_t>(p), tag,
                                        std::move(v));
    co_await scan_.update(ctx, std::move(s));
  }

  Coro<View> scan(Ctx ctx) {
    LatticeValue joined = co_await scan_.scan(ctx);
    co_return Lattice::unpack(joined, static_cast<std::size_t>(n_));
  }

  Coro<View> update_and_scan(Ctx ctx, T v) {
    co_await update(ctx, std::move(v));
    LatticeValue joined = co_await scan_.scan(ctx);
    co_return Lattice::unpack(joined, static_cast<std::size_t>(n_));
  }

  TreeScan<B, Lattice>& tree() { return scan_; }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    scan_.export_contention_gauges(registry, prefix);
  }

 private:
  struct alignas(64) Tag {
    std::uint64_t value = 0;
  };

  int n_;
  TreeScan<B, Lattice> scan_;
  std::vector<std::unique_ptr<Tag>> next_tag_;
};

// --------------------------------------------------------------------------
// rt convenience wrappers (see api::RtObject). Thread p may call only the
// p-indexed update paths; scans are callable by anyone.

template <Semilattice L>
class TreeScanRT : public api::RtObject {
 public:
  using Value = typename L::Value;

  explicit TreeScanRT(int num_procs)
      : RtObject(num_procs), impl_(mem_, num_procs) {}

  void update(int p, Value v) {
    impl_.update(api::RtBackend::Ctx{p}, std::move(v)).get();
  }
  Value scan(int p) { return impl_.scan(api::RtBackend::Ctx{p}).get(); }
  Value update_and_scan(int p, Value v) {
    return impl_.update_and_scan(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    impl_.export_contention_gauges(registry, prefix);
  }

 private:
  TreeScan<api::RtBackend, L> impl_;
};

template <class T>
class TreeSnapshotRT : public api::RtObject {
 public:
  using View = std::vector<std::optional<T>>;

  explicit TreeSnapshotRT(int num_procs)
      : RtObject(num_procs), impl_(mem_, num_procs) {}

  void update(int p, T v) {
    impl_.update(api::RtBackend::Ctx{p}, std::move(v)).get();
  }
  View scan(int p) { return impl_.scan(api::RtBackend::Ctx{p}).get(); }
  View update_and_scan(int p, T v) {
    return impl_.update_and_scan(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    impl_.export_contention_gauges(registry, prefix);
  }

 private:
  TreeSnapshot<api::RtBackend, T> impl_;
};

}  // namespace apram::snapshot
