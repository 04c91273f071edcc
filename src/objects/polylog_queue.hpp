// PolylogQueue — a wait-free FIFO queue with polylogarithmic step
// complexity, after Naderibeni & Ruppert ("A Wait-free Queue with
// Polylogarithmic Step Complexity", arXiv:2305.07229), built on the farray
// tree (farray/farray.hpp).
//
// Construction. Each process appends its operations (enqueue(v) / dequeue)
// to a single-writer log; a tournament tree over the n logs — the farray
// with an order-accumulating refresher instead of a pure combine — agrees
// on ONE total order of all operations:
//
//   node value = an immutable chain of blocks; each successful stamped-CAS
//   install appends one block holding exactly the child entries not yet
//   covered (the chain records, per install, the child chains it consumed,
//   so the diff is computed by walking the child chain back to the recorded
//   base — no rescans, no duplicates). CAS lineage makes every node's chain
//   PREFIX-STABLE: installs only extend, so once an operation has a
//   position at the root, that position never changes.
//
// The double-refresh helping lemma (see farray/farray.hpp — it is purely
// temporal, so it applies to this refresher verbatim) guarantees that when
// an operation's root-path walk returns, the operation is in the root
// chain. The root order is the linearization: it extends real-time order
// (an op enters the tree only after its invocation, and is at the root
// before its response), and responses are COMPUTED from it — a dequeue
// reads the root once and replays the FIFO semantics over the prefix up to
// its own entry, so agreement on responses is agreement on the order, and
// no per-item CAS races (hence no unbounded retry loops) exist anywhere.
// Replay is process-local: each process keeps a cursor into the (prefix-
// stable) root order, so total local replay work is amortized O(1) per
// entry and zero shared accesses.
//
// Step counts (shared accesses; h = ⌈log2 n⌉, exact solo for n a power of
// two):
//
//   enqueue:  1 + 4h solo, ≤ 1 + 8h contended  (leaf append + root path)
//   dequeue:  2 + 4h solo, ≤ 2 + 8h contended  (+ one root read)
//
// apram-trace certifies both under `--bound queue_op` against the paper's
// O(log² n) envelope (12·⌈log2 n⌉² — our register-model cost is O(log n)
// REGISTER accesses because a node's whole chain lives in one register; the
// paper pays the extra log factor to keep node values word-sized, the same
// modelling convention as TaggedVectorLattice's O(n) register values).
// Space is unbounded: the chain holds the full history (the paper's own
// unbounded-counter construction has the same shape).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram {

// One operation in a log: (pid, seq) is its identity, seq 1-based per pid.
struct QueueOp {
  std::int32_t pid = 0;
  std::uint32_t seq = 0;
  bool is_enq = false;
  std::int64_t value = 0;  // enqueue payload
};

// One immutable block of a chain. A chain (Ptr; nullptr = empty) is the
// value of a leaf or internal-node register; blocks are shared across
// registers by shared_ptr, so copying a register value is O(1).
struct QueueLog {
  using Ptr = std::shared_ptr<const QueueLog>;

  Ptr prev;                  // rest of this chain
  std::vector<QueueOp> ops;  // entries this install appended, in order
  std::uint64_t len = 0;     // cumulative entries including this block
  // Child chains this install consumed (internal nodes only): the next
  // install diffs the then-current child chains against these bases.
  Ptr left_base;
  Ptr right_base;

  QueueLog() = default;
  QueueLog(const QueueLog&) = delete;
  QueueLog& operator=(const QueueLog&) = delete;

  // Iterative teardown: chains reach the full history, and a recursive
  // shared_ptr cascade (prev → prev → …) would overflow the stack.
  ~QueueLog() {
    std::vector<Ptr> work;
    work.push_back(std::move(prev));
    work.push_back(std::move(left_base));
    work.push_back(std::move(right_base));
    while (!work.empty()) {
      Ptr c = std::move(work.back());
      work.pop_back();
      if (c && c.use_count() == 1) {
        // Sole owner: strip the links so `c`'s destructor is shallow.
        auto& b = const_cast<QueueLog&>(*c);
        work.push_back(std::move(b.prev));
        work.push_back(std::move(b.left_base));
        work.push_back(std::move(b.right_base));
      }
    }
  }
};

using QueueChain = QueueLog::Ptr;

inline std::uint64_t queue_chain_len(const QueueChain& c) {
  return c ? c->len : 0;
}

// The order-accumulating node refresher (farray::NodeRefresherFor): extend
// the node's current chain with whatever the children appended since the
// last install. Pure in its three inputs — the consumed bases ride inside
// the chain value itself.
struct QueueOrderRefresh {
  static QueueChain identity() { return nullptr; }

  static QueueChain refresh(const QueueChain& cur, QueueChain l,
                            QueueChain r) {
    auto b = std::make_shared<QueueLog>();
    append_diff(b->ops, l, cur ? cur->left_base : nullptr);
    append_diff(b->ops, r, cur ? cur->right_base : nullptr);
    b->prev = cur;
    b->len = queue_chain_len(cur) + b->ops.size();
    b->left_base = std::move(l);
    b->right_base = std::move(r);
    return b;
  }

 private:
  // Entries of `now` newer than `base`. `base` is always an ancestor block
  // of `now` (chains only extend, and `base` was read from this child
  // earlier), so the walk terminates by pointer equality.
  static void append_diff(std::vector<QueueOp>& out, const QueueChain& now,
                          const QueueChain& base) {
    std::vector<const QueueLog*> fresh;
    for (const QueueLog* b = now.get(); b != base.get(); b = b->prev.get()) {
      APRAM_CHECK_MSG(b != nullptr, "queue chain base is not an ancestor");
      fresh.push_back(b);
    }
    for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
      out.insert(out.end(), (*it)->ops.begin(), (*it)->ops.end());
    }
  }
};

template <class B>
  requires api::BackendFor<B, QueueChain> &&
           api::CasBackendFor<B, farray::Stamped<QueueChain>>
class PolylogQueue {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Tree = farray::FArrayTree<B, QueueChain, QueueOrderRefresh>;

  PolylogQueue(typename B::Mem& mem, int num_procs) : tree_(mem, num_procs) {
    locals_.reserve(static_cast<std::size_t>(num_procs));
    for (int p = 0; p < num_procs; ++p) {
      locals_.push_back(std::make_unique<Local>());
    }
  }

  int num_procs() const { return tree_.num_procs(); }
  int height() const { return tree_.height(); }

  // Appends the value; on return the enqueue has a fixed position in the
  // agreed total order. 1 + 4h accesses solo, ≤ 1 + 8h contended.
  Coro<void> enqueue(Ctx ctx, std::int64_t v) {
    const int p = ctx.pid();
    Local& l = local(p);
    ctx.op_begin(obs::OpKind::kEnqueue);
    QueueChain leaf = append_own(l, p, /*is_enq=*/true, v);
    co_await tree_.write(ctx, std::move(leaf));
    ctx.op_end(obs::OpKind::kEnqueue);
  }

  // Removes and returns the oldest value, or -1 when the queue is empty at
  // the dequeue's linearization point (QueueSpec's totalized dequeue).
  // 2 + 4h accesses solo, ≤ 2 + 8h contended.
  Coro<std::int64_t> dequeue(Ctx ctx) {
    const int p = ctx.pid();
    Local& l = local(p);
    ctx.op_begin(obs::OpKind::kDequeue);
    const std::uint32_t seq = l.num_ops + 1;
    QueueChain leaf = append_own(l, p, /*is_enq=*/false, 0);
    co_await tree_.write(ctx, std::move(leaf));
    QueueChain root = co_await tree_.read_f(ctx);
    const std::int64_t resp = replay_to(l, p, seq, root);
    ctx.op_end(obs::OpKind::kDequeue);
    co_return resp;
  }

  // Test/debug: the agreed total order so far (root chain length).
  Tree& tree() { return tree_; }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    tree_.export_contention_gauges(registry, prefix);
  }

 private:
  struct alignas(64) Local {
    QueueChain leaf;            // mirror of own leaf register (single writer)
    std::uint32_t num_ops = 0;  // == queue_chain_len(leaf)
    // FIFO replay cursor over the root order. The root chain is
    // prefix-stable, so the cursor never rewinds and replay work is
    // amortized O(1) per linearized entry.
    std::uint64_t consumed = 0;  // root entries already replayed
    std::uint64_t front = 0;     // next enqueue (by root order) to hand out
    std::vector<std::int64_t> enq_values;  // enqueue payloads in root order
  };

  Local& local(int p) { return *locals_[static_cast<std::size_t>(p)]; }

  QueueChain append_own(Local& l, int pid, bool is_enq, std::int64_t v) {
    auto b = std::make_shared<QueueLog>();
    b->prev = l.leaf;
    b->ops.push_back(QueueOp{static_cast<std::int32_t>(pid), l.num_ops + 1,
                             is_enq, v});
    b->len = l.num_ops + 1;
    l.leaf = b;
    ++l.num_ops;
    return b;
  }

  // Replays the FIFO semantics over the root order up to (and including)
  // entry (pid, seq) — which the helping lemma guarantees is present —
  // returning that dequeue's response. Local work only.
  std::int64_t replay_to(Local& l, int pid, std::uint32_t seq,
                         const QueueChain& root) {
    std::vector<const QueueLog*> blocks;
    for (const QueueLog* b = root.get(); b != nullptr && b->len > l.consumed;
         b = b->prev.get()) {
      blocks.push_back(b);
    }
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
      const QueueLog* b = *it;
      const std::uint64_t start = b->len - b->ops.size();
      std::size_t i =
          l.consumed > start ? static_cast<std::size_t>(l.consumed - start)
                             : 0;
      for (; i < b->ops.size(); ++i) {
        const QueueOp& op = b->ops[i];
        ++l.consumed;
        std::int64_t resp = 0;
        if (op.is_enq) {
          l.enq_values.push_back(op.value);
        } else {
          resp = -1;
          if (l.front < l.enq_values.size()) {
            resp = l.enq_values[static_cast<std::size_t>(l.front)];
            ++l.front;
          }
        }
        if (op.pid == pid && op.seq == seq) return resp;
      }
    }
    APRAM_CHECK_MSG(false,
                    "dequeue missing from the root after its refresh walk — "
                    "the double-refresh helping lemma was violated");
    return -1;
  }

  Tree tree_;
  std::vector<std::unique_ptr<Local>> locals_;  // [n]
};

// --------------------------------------------------------------------------
// rt convenience wrapper (int-pid call style; thread p calls only pid p's
// entry points — the Local replay state is single-threaded per pid).

class PolylogQueueRT : public api::RtObject {
 public:
  explicit PolylogQueueRT(int num_procs)
      : RtObject(num_procs), impl_(mem_, num_procs) {}

  void enqueue(int p, std::int64_t v) {
    impl_.enqueue(api::RtBackend::Ctx{p}, v).get();
  }
  std::int64_t dequeue(int p) {
    return impl_.dequeue(api::RtBackend::Ctx{p}).get();
  }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    impl_.export_contention_gauges(registry, prefix);
  }

 private:
  PolylogQueue<api::RtBackend> impl_;
};

}  // namespace apram
