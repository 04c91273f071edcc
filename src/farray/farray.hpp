// apram::farray — the reusable stamped-CAS aggregation tree ("f-array").
//
// Generalizes the tree that used to live inside snapshot::TreeScan into a
// first-class primitive, following Obryk's Write-and-f-array (1407.6153) and
// Jayanti's f-arrays: process p owns leaf p of a perfect binary tree whose
// internal nodes cache f over their subtree's leaves,
//
//   write(p, v):  set p's leaf (1 write), then walk the root path refreshing
//                 each node to f(children) — ≤ 1 + 8·⌈log2 n⌉ accesses.
//   read_f():     read the root — 1 access, independent of n.
//
// where f is an arbitrary *associative* combine with a unit (the Combiner
// concept in algebra/combiner.hpp) — lattice join is just one instance.
//
// Layout (heap indexing over m = bit_ceil(n) leaf slots): internal nodes are
// 1..m-1 with children of i at 2i and 2i+1; leaf p sits at slot m+p; child
// slots ≥ m beyond n-1 are padding and fold as the identity for free. n == 1
// has no internal nodes — the root IS the single leaf. Leaves fold strictly
// left-to-right, so non-commutative combines see operands in pid order.
//
// Registers. Leaves are single-writer registers. Internal nodes are
// multi-writer CAS registers holding Stamped<T>: a refresh reads the node
// (cur), reads both children, and CASes {cur.seq+1, f(children)} over cur.
// Stamped equality compares seq only; every successful CAS installs a fresh
// seq, so value-equality identifies writes and the CAS is ABA-free (what
// CASValueRegister — a cmpxchg16b for Stamped<int64>, the arena's
// control-word swap for larger T — and the simulator's operator== CAS all
// require).
//
// Double-refresh helping lemma (why TWO attempts per node suffice, for ANY
// refresher — no lattice order needed): suppose both of P's CASes at node u
// fail. Each failure means a rival installed in the window [P's node read,
// P's CAS]. Take W2 = the install that beat P's second CAS. The value W2's
// node read saw was installed no earlier than W1 (the install that failed
// P's first CAS, itself after P's first node read), so W2's child reads
// happen after P's first node read — and hence after P completed the child
// level. W2's install is therefore computed from child values that already
// contain P's contribution, and it lands before P's second CAS returns.
// Inductively the root covers the contribution by the time write() returns.
//
// What survives the generalization and what does not: the helping lemma
// above is purely temporal — it never compares values, so it holds verbatim
// for arbitrary f. What is lost without idempotence + order is node
// MONOTONICITY: for a semilattice, successive root values form a chain (any
// two reads comparable — snapshot::TreeScan's Lemma 32 face); for a general
// combine, a root read is a one-access f-summary whose operands are each
// leaf's current-or-recent value, with the completed-write guarantee above.
// Clients that need a total order over *operations* (objects/polylog_queue)
// get it by making the node value itself an order: see NodeRefresherFor.
//
// Step counts (exact for n a power of two; upper bounds otherwise, since
// padding-leaf folds are free and h = ⌈log2 n⌉):
//
//   write, solo:       1 + 4h   (per level: node read + 2 child reads + CAS)
//   write, contended:  ≤ 1 + 8h (each level retried once)
//   read_f:            1        (independent of n)
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/combiner.hpp"
#include "api/backend.hpp"
#include "obs/contention.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram::farray {

// A value plus a write-identifying stamp. operator== compares ONLY seq: two
// Stamped values are "equal" iff they are the same write, which is exactly
// the identity a value-compared CAS needs to be ABA-free.
template <class T>
struct Stamped {
  std::uint64_t seq = 0;
  T v{};

  friend bool operator==(const Stamped& a, const Stamped& b) {
    return a.seq == b.seq;
  }
};

// Tree height h = log2(bit_ceil(n)) — constexpr so tests can assert against
// closed forms.
constexpr int farray_height(int num_procs) {
  int m = 1;
  int h = 0;
  while (m < num_procs) {
    m *= 2;
    ++h;
  }
  return h;
}

// Exact when n is a power of two; an upper bound otherwise (padding-leaf
// folds cost nothing).
constexpr std::uint64_t farray_write_solo_accesses(int num_procs) {
  return 1 + 4ull * static_cast<std::uint64_t>(farray_height(num_procs));
}

// Worst case under contention: every level needs both refresh attempts.
constexpr std::uint64_t farray_write_max_accesses(int num_procs) {
  return 1 + 8ull * static_cast<std::uint64_t>(farray_height(num_procs));
}

constexpr std::uint64_t farray_read_accesses() { return 1; }

// The node-recompute hook: given the refreshing process's pid, the node's
// current value and the two child values just read, produce the value to
// install. Pure combiners recompute f(left, right) from scratch and ignore
// `pid` and `cur`; order-accumulating clients (the polylog queue's block
// chains) EXTEND `cur` with what the children added, allocating from the
// refreshing process's own store. The helping lemma holds for any refresher
// — it argues about when the child reads happened, never about the value
// computed from them.
template <class R, class T>
concept NodeRefresherFor = requires(R& refresher, int pid, const T& cur, T l,
                                    T r) {
  { R::identity() } -> std::convertible_to<T>;
  {
    refresher.refresh(pid, cur, std::move(l), std::move(r))
  } -> std::convertible_to<T>;
};

// The optional discard hook: a refresher that allocates in refresh() may
// define discard(pid, cur, made), which the tree calls after a CAS that
// tried to install `made` over `cur` lost. No register ever held `made`, so
// the refresher may take it back (the polylog queue's block stores).
template <class R, class T>
concept DiscardingRefresherFor = requires(R& refresher, int pid, const T& cur,
                                          const T& made) {
  refresher.discard(pid, cur, made);
};

// Refresher of a pure combiner: nodes hold f(subtree), recomputed from the
// children on every install. Missing (padding) children fold as identity on
// the correct side, preserving left-to-right operand order.
template <class T, class F>
  requires CombinerFor<F, T>
struct CombineRefresh {
  static T identity() { return F::identity(); }
  static T refresh(int /*pid*/, const T& /*cur*/, T l, T r) {
    return F::combine(std::move(l), std::move(r));
  }
};

// The tree machinery, parameterized over the refresher. Most users want the
// FArray alias below; objects/polylog_queue.hpp instantiates this directly
// with its log-appending refresher.
//
// Span discipline: write()/read_f() emit NO op spans of their own — the
// client owns the op kind (kTreeUpdate, kEnqueue, …) and opens the span
// around the call; the tree contributes the per-level Phase::kRefresh marks
// and the kHelp event when both CASes of a level lose.
template <class B, class T, class R>
  requires NodeRefresherFor<R, T> && api::BackendFor<B, T> &&
           api::CasBackendFor<B, Stamped<T>>
class FArrayTree {
 public:
  using Value = T;
  using Node = Stamped<T>;
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  FArrayTree(typename B::Mem& mem, int num_procs, R refresher = R{})
      : n_(num_procs), refresher_(std::move(refresher)) {
    APRAM_CHECK(num_procs >= 1);
    m_ = 1;
    while (m_ < n_) m_ *= 2;
    leaves_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      leaves_.push_back(&mem.template make<Value>(R::identity(), /*writer=*/p));
    }
    nodes_.assign(static_cast<std::size_t>(m_), nullptr);
    for (int i = 1; i < m_; ++i) {
      nodes_[static_cast<std::size_t>(i)] =
          &mem.template make_cas<Node>(Node{0, R::identity()});
    }
    // Contention cells mirror the heap indexing (cell u = node u; cell 0
    // unused). Node u sits at depth ⌊log2 u⌋, so its refresh level — the
    // loop counter in refresh_path — is height−1−depth (root = top level).
    contention_ = obs::NodeContention(m_, n_);
    const int h = height();
    for (int i = 1; i < m_; ++i) {
      int depth = 0;
      for (int v = i; v > 1; v /= 2) ++depth;
      contention_.set_level(i, h - 1 - depth);
    }
  }

  int num_procs() const { return n_; }
  int height() const { return farray_height(n_); }

  // Sets the caller's leaf to v and propagates: on return the root value
  // covers this write (see the helping lemma above). ≤ 1 + 8·height()
  // accesses; the caller must be inside its own op span.
  //
  // Style note: every co_await sits alone in its own statement (GCC 12
  // wrong-code workaround, as in lattice_scan.hpp).
  Coro<void> write(Ctx ctx, Value v) {
    const int p = ctx.pid();
    co_await ctx.write(leaf(p), std::move(v));
    co_await refresh_path(ctx, p);
  }

  // Walks p's root path, double-refreshing each node. Exposed for clients
  // whose leaf write needs custom packaging but whose propagation is
  // standard (the queue appends a log entry, then calls this).
  Coro<void> refresh_path(Ctx ctx, int p) {
    int u = (m_ + p) / 2;  // 0 when m_ == 1: the leaf is the root
    int level = 0;
    while (u >= 1) {
      ctx.op_phase(obs::Phase::kRefresh, level);
      bool installed = false;
      int installed_attempt = -1;
      for (int attempt = 0; attempt < 2; ++attempt) {
        Node cur = co_await ctx.read(node(u));
        const int lc = 2 * u;
        const int rc = 2 * u + 1;
        Value lv = R::identity();
        Value rv = R::identity();
        if (lc >= m_) {
          if (lc - m_ < n_) {
            Value read_l = co_await ctx.read(leaf(lc - m_));
            lv = std::move(read_l);
          }
        } else {
          Node ls = co_await ctx.read(node(lc));
          lv = std::move(ls.v);
        }
        if (rc >= m_) {
          if (rc - m_ < n_) {
            Value read_r = co_await ctx.read(leaf(rc - m_));
            rv = std::move(read_r);
          }
        } else {
          Node rs = co_await ctx.read(node(rc));
          rv = std::move(rs.v);
        }
        Node next{cur.seq + 1, refresher_.refresh(ctx.pid(), cur.v,
                                                  std::move(lv),
                                                  std::move(rv))};
        bool ok = false;
        if constexpr (DiscardingRefresherFor<R, T>) {
          ok = co_await ctx.cas(node(u), cur, next);
          if (!ok) refresher_.discard(ctx.pid(), cur.v, next.v);
        } else {
          ok = co_await ctx.cas(node(u), std::move(cur), std::move(next));
        }
        if (ok) {
          installed = true;
          installed_attempt = attempt;
          break;
        }
      }
      // Both CASes lost: the double-refresh lemma says a rival's install
      // covered this contribution — the op was helped at node u.
      if (!installed) ctx.op_help(u);
      // Contention telemetry: process-local relaxed counters, zero model
      // registers touched (compiled out under APRAM_OBS_CONTENTION=OFF).
      contention_.on_level_walk(
          p, u,
          !installed ? obs::WalkOutcome::kHelped
                     : (installed_attempt == 0
                            ? obs::WalkOutcome::kFirstRefresh
                            : obs::WalkOutcome::kSecondRefresh));
      u /= 2;
      ++level;
    }
  }

  // f over all leaves as of some recent instant covering every completed
  // write. One register access.
  Coro<Value> read_f(Ctx ctx) {
    if (m_ == 1) {
      Value v = co_await ctx.read(leaf(0));
      co_return v;
    }
    Node root = co_await ctx.read(node(1));
    co_return std::move(root.v);
  }

  // Per-node contention telemetry (obs/contention.hpp); cell u = heap node
  // u. Exact at quiescence; empty/no-op when compiled out.
  const obs::NodeContention& contention() const { return contention_; }
  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    contention_.export_gauges(registry, prefix);
  }

 private:
  typename B::template Reg<Value>& leaf(int p) const {
    APRAM_CHECK(p >= 0 && p < n_);
    return *leaves_[static_cast<std::size_t>(p)];
  }
  typename B::template CasReg<Node>& node(int i) const {
    APRAM_CHECK(i >= 1 && i < m_);
    return *nodes_[static_cast<std::size_t>(i)];
  }

  int n_;
  int m_;  // bit_ceil(n): number of leaf slots of the perfect tree
  [[no_unique_address]] R refresher_;
  std::vector<typename B::template Reg<Value>*> leaves_;   // [n]
  std::vector<typename B::template CasReg<Node>*> nodes_;  // [m], 0 unused
  mutable obs::NodeContention contention_;  // cell u = node u, 0 unused
};

// The public f-array: FArray<B, T, F> maintains f(leaf_0, …, leaf_{n-1})
// for a Combiner F over T (write = set own leaf + propagate; read_f = one
// root read).
template <class B, class T, class F>
  requires CombinerFor<F, T>
using FArray = FArrayTree<B, T, CombineRefresh<T, F>>;

}  // namespace apram::farray
