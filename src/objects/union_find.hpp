// UnionFind — a concurrent disjoint-set forest in the Jayanti–Tarjan style
// ("Concurrent Disjoint Set Union", PODC'16 / Distributed Computing 2021):
// a CAS-based parent forest with min-wins linking and path halving, plus an
// FArray side-structure that makes num_sets a ONE-READ query (an
// overcount-free bound, exact in quiescence — see below).
//
// Representation. parent[i] is a multi-writer CAS register over element
// ids; i is a root iff parent[i] == i. Links always point the larger root
// at the smaller (CAS(parent[max], max, min)), so
//
//   (a) parent values only DECREASE — parent[x] goes x → p1 > p2 > …, each
//       halving CAS installs the grandparent (< parent). A plain
//       value-compared CAS is therefore ABA-free here by monotonicity, no
//       stamps needed.
//   (b) the root of a set is always its MINIMUM element — find() has a
//       deterministic sequential meaning (UnionFindSpec in specs.hpp), so
//       histories lincheck against an exact oracle.
//
// find uses path halving: read parent[x], read parent[parent[x]], CAS the
// shortcut (failure ignored — some rival already compressed or linked), hop
// to the grandparent. unite retries find+link until the roots agree or its
// link CAS lands.
//
// Progress: LOCK-FREE, not wait-free — a unite's link CAS can lose to
// rivals, but only to *successful* links, and there are at most U-1 of
// those ever, so system-wide progress is bounded (and every fault-campaign
// run here terminates within a schedule-independent step budget). Making
// DSU wait-free is open territory; the paper-faithful wait-free citizens of
// this repo are the farray clients, and this object shows the SAME farray
// tree composing with a lock-free core:
//
// num_sets in one read: after each successful link, the linker
// farray-writes its personal count of successful links into
// FArray<B, int64, SumCombiner>; the root then reads Σ links, and
// num_sets = U − Σ links (every successful link reduces the number of sets
// by exactly one, and link CASes never succeed twice for the same merge).
//
// num_sets is NOT linearizable — it is an overcount-free BOUND. A link
// becomes visible to find/same_set at the link CAS, but is counted only at
// the farray write a few steps later, and the farray leaves are per-process
// SWMR, so no helper can complete a paused linker's write. In that window
// same_set can observe a merge that num_sets has not yet subtracted. What
// num_sets(r) DOES guarantee:
//
//   true set count at every instant of the read  ≤  r  ≤  U − (links
//   counted before the op began),
//
// i.e. r never undercounts (links are counted at most once, only after
// they succeed), r is non-increasing across reads that see later roots,
// and in quiescence — all unites finished, none crashed mid-unite — r is
// exact (a COMPLETED unite has completed its counter write, by the farray
// helping lemma). A process that crashes between its link CAS and its
// counter write inflates the bound by one permanently; the fault campaigns
// in tests/fault_seeds.hpp exercise exactly that window. Because of this,
// num_sets is NOT part of the exact lincheck spec (UnionFindSpec covers
// unite/find/same_set only); its bound semantics are pinned by a targeted
// paused-linker schedule in queue_uf_test.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algebra/combiner.hpp"
#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram {

template <class B>
  requires api::BackendFor<B, std::int64_t> &&
           api::CasBackendFor<B, std::int32_t> &&
           api::CasBackendFor<B, farray::Stamped<std::int64_t>>
class UnionFind {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using LinkCounter = farray::FArray<B, std::int64_t, SumCombiner<std::int64_t>>;

  UnionFind(typename B::Mem& mem, int num_procs, int universe)
      : n_(num_procs), u_(universe), links_(mem, num_procs) {
    APRAM_CHECK(universe >= 1);
    parent_.reserve(static_cast<std::size_t>(u_));
    for (std::int32_t i = 0; i < u_; ++i) {
      parent_.push_back(&mem.template make_cas<std::int32_t>(i));
    }
    locals_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      locals_.push_back(std::make_unique<Local>());
    }
  }

  int num_procs() const { return n_; }

  // The minimum element of x's set (see (b) above).
  Coro<std::int32_t> find(Ctx ctx, std::int32_t x) {
    ctx.op_begin(obs::OpKind::kFind);
    std::int32_t r = co_await find_root(ctx, x);
    ctx.op_end(obs::OpKind::kFind);
    co_return r;
  }

  // Merges a's and b's sets (no-op if already merged).
  Coro<void> unite(Ctx ctx, std::int32_t a, std::int32_t b) {
    ctx.op_begin(obs::OpKind::kUnion);
    while (true) {
      std::int32_t ra = co_await find_root(ctx, a);
      std::int32_t rb = co_await find_root(ctx, b);
      if (ra == rb) break;
      const std::int32_t lo = std::min(ra, rb);
      const std::int32_t hi = std::max(ra, rb);
      bool linked = co_await ctx.cas(parent(hi), hi, lo);
      if (linked) {
        Local& l = *locals_[static_cast<std::size_t>(ctx.pid())];
        ++l.links;
        co_await links_.write(ctx, l.links);
        break;
      }
      // parent[hi] can only have moved off hi via a rival's successful
      // link (halving never changes a root), so losing here means the
      // forest merged under us — re-find and retry. At most U-1 links ever
      // succeed, so the retry count is bounded by U, not just lock-free.
    }
    ctx.op_end(obs::OpKind::kUnion);
  }

  // Whether a and b are in the same set, linearizably: if the roots differ,
  // re-check that ra is STILL a root — then at the moment find_root(b)
  // returned rb, ra was a's root and rb ≠ ra was b's, a witness instant of
  // separateness. If ra got linked away meanwhile, retry.
  Coro<bool> same_set(Ctx ctx, std::int32_t a, std::int32_t b) {
    ctx.op_begin(obs::OpKind::kFind);
    bool result = false;
    while (true) {
      std::int32_t ra = co_await find_root(ctx, a);
      std::int32_t rb = co_await find_root(ctx, b);
      if (ra == rb) {
        result = true;
        break;
      }
      std::int32_t pra = co_await ctx.read(parent(ra));
      if (pra == ra) {
        result = false;
        break;
      }
    }
    ctx.op_end(obs::OpKind::kFind);
    co_return result;
  }

  // Overcount-free bound on the number of sets, in ONE shared read beyond
  // the span bookkeeping: U − (sum of counted links) off the FArray root.
  // Never less than the true set count; exact in quiescence; may lag a
  // concurrent (or crashed) unite whose link CAS landed but whose counter
  // write has not — see the header comment. NOT linearizable.
  Coro<std::int64_t> num_sets(Ctx ctx) {
    ctx.op_begin(obs::OpKind::kFind);
    std::int64_t total_links = co_await links_.read_f(ctx);
    ctx.op_end(obs::OpKind::kFind);
    co_return static_cast<std::int64_t>(u_) - total_links;
  }

 private:
  struct alignas(64) Local {
    std::int64_t links = 0;  // my successful link CASes so far
  };

  // Path-halving find; x decreases every hop, so it terminates in ≤ U hops
  // regardless of concurrency.
  Coro<std::int32_t> find_root(Ctx ctx, std::int32_t x) {
    while (true) {
      std::int32_t px = co_await ctx.read(parent(x));
      if (px == x) co_return x;
      std::int32_t ppx = co_await ctx.read(parent(px));
      if (ppx == px) co_return px;
      // Benign shortcut: failure means a rival already moved parent[x]
      // further down (values only decrease), which is just as good.
      bool shortened = co_await ctx.cas(parent(x), px, ppx);
      (void)shortened;
      x = ppx;
    }
  }

  typename B::template CasReg<std::int32_t>& parent(int i) const {
    APRAM_CHECK(i >= 0 && i < u_);
    return *parent_[static_cast<std::size_t>(i)];
  }

  int n_;
  int u_;
  LinkCounter links_;
  std::vector<typename B::template CasReg<std::int32_t>*> parent_;  // [U]
  std::vector<std::unique_ptr<Local>> locals_;                      // [n]
};

// --------------------------------------------------------------------------
// rt convenience wrapper (int-pid call style).

class UnionFindRT : public api::RtObject {
 public:
  UnionFindRT(int num_procs, int universe)
      : RtObject(num_procs), impl_(mem_, num_procs, universe) {}

  std::int32_t find(int p, std::int32_t x) {
    return impl_.find(api::RtBackend::Ctx{p}, x).get();
  }
  void unite(int p, std::int32_t a, std::int32_t b) {
    impl_.unite(api::RtBackend::Ctx{p}, a, b).get();
  }
  bool same_set(int p, std::int32_t a, std::int32_t b) {
    return impl_.same_set(api::RtBackend::Ctx{p}, a, b).get();
  }
  std::int64_t num_sets(int p) {
    return impl_.num_sets(api::RtBackend::Ctx{p}).get();
  }

 private:
  UnionFind<api::RtBackend> impl_;
};

}  // namespace apram
