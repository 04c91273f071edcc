// PolylogQueue — a wait-free FIFO queue with polylogarithmic step
// complexity, after Naderibeni & Ruppert ("A Wait-free Queue with
// Polylogarithmic Step Complexity", arXiv:2305.07229), built on the farray
// tree (farray/farray.hpp).
//
// Construction. Each process appends its operations to a chain of blocks
// in its single-writer leaf; the farray, with a block-appending refresher in
// place of a combine, agrees on ONE total order of all operations. Every
// register holds a pointer to the newest immutable QueueBlock of its chain,
// so leaves are word registers and nodes Stamped<pointer> double words. A
// leaf block is one operation: its value and the process's cumulative
// enqueue and dequeue counts. A node block is one install: it covers the
// child blocks in (prev.left, left] and (prev.right, right], and its counts
// are the sums of its children's. A block is written once, by the process
// that allocates it, before the leaf write or CAS that publishes it; CAS
// lineage makes every chain prefix-stable (installs only extend it).
//
// Linearization. Root blocks are ordered by install. Within one root block,
// its enqueues come first, then its dequeues, each group in child order
// (left subtree before right, recursively). This is legal: every operation
// in a root block B was invoked before B's install (its leaf write precedes
// the reads B was built from) and responds after it (the double-refresh
// helping lemma of farray/farray.hpp puts it in the root before its walk
// returns, and B is the first root block to cover it). So the operations of
// one block are pairwise concurrent, and the block order extends real time.
//
// Responses. Let P be the root block before B, size(P) the queue size after
// P and enq(B) = enqs(B) − enqs(P). The i-th dequeue of B succeeds iff
// i ≤ size(P) + enq(B), and then returns enqueue number
// enqs(P) − size(P) + i. After its walk a dequeue reads the root once. It
// then finds its rank bottom-up (at each level, the block covering it and
// its place among that block's dequeues) and the matching enqueue top-down.
// Each level is one search along one chain over Myers' skew-binary jump
// pointers, set once when a block is created: O(log L) steps for a chain of
// L blocks, reading immutable blocks only.
//
// Step counts (shared accesses; h = ⌈log2 n⌉, exact solo for n a power of
// two):
//
//   enqueue:  1 + 4h solo, ≤ 1 + 8h contended  (leaf write + root path)
//   dequeue:  2 + 4h solo, ≤ 2 + 8h contended  (+ one root read)
//
// apram-trace certifies both under `--bound queue_op` against the paper's
// O(log² n) envelope (12·⌈log2 n⌉²). The searches are local work on the
// value read, as in the paper's large-register model: a register's value is
// the immutable chain its pointer reaches. Space is unbounded: the queue
// owns every published block in per-process stores and frees them on
// destruction (a node block whose CAS lost goes back to its store at once).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram {

// One immutable block of a leaf or node chain. Counts are cumulative over
// the chain up to and including this block.
struct QueueBlock {
  const QueueBlock* prev;   // the block before this one in its chain
  const QueueBlock* jump;   // skew-binary jump pointer (an older block)
  const QueueBlock* left;   // node: left child's newest covered block
  const QueueBlock* right;  // node: right child's newest covered block
  std::uint64_t depth;      // position in the chain, 1-based
  std::uint64_t enqs;
  std::uint64_t deqs;
  std::uint64_t size;  // queue size after this block, were it the root's
  std::int64_t value;  // leaf: the enqueued value
};

// A chain is named by its newest block.
using QueueChain = const QueueBlock*;

// The empty chain: a block with zero counts that is its own predecessor,
// jump and children, so walks and searches never meet a null pointer.
inline constexpr QueueBlock kEmptyQueueChain{
    &kEmptyQueueChain, &kEmptyQueueChain, &kEmptyQueueChain,
    &kEmptyQueueChain, 0, 0, 0, 0, 0};

namespace queue_detail {

// One process's blocks: a bump allocator over fixed-size chunks, used only
// by that process (rt thread p allocates from store p alone), plus the
// newest block of its leaf chain, which mirrors its leaf register.
class alignas(64) BlockStore {
 public:
  // Appends one operation to the leaf chain and returns the new leaf value.
  QueueChain append_op(bool is_enq, std::int64_t v) {
    leaf_ = make(leaf_, &kEmptyQueueChain, &kEmptyQueueChain,
                 leaf_->enqs + (is_enq ? 1 : 0),
                 leaf_->deqs + (is_enq ? 0 : 1), v);
    return leaf_;
  }

  // Appends a block after `prev` and fills in its chain fields: depth, the
  // jump pointer and the size by the within-block rule.
  QueueChain make(QueueChain prev, QueueChain left, QueueChain right,
                  std::uint64_t enqs, std::uint64_t deqs, std::int64_t value) {
    if (used_ == kChunk) {
      chunks_.push_back(std::make_unique_for_overwrite<QueueBlock[]>(kChunk));
      used_ = 0;
    }
    QueueBlock& b = chunks_.back()[used_++];
    const QueueChain j = prev->jump;
    const std::uint64_t have = prev->size + enqs - prev->enqs;
    const std::uint64_t taken = deqs - prev->deqs;
    b = QueueBlock{
        .prev = prev,
        .jump = prev->depth - j->depth == j->depth - j->jump->depth ? j->jump
                                                                    : prev,
        .left = left,
        .right = right,
        .depth = prev->depth + 1,
        .enqs = enqs,
        .deqs = deqs,
        .size = have > taken ? have - taken : 0,
        .value = value};
    return &b;
  }

  // Takes back `made`, which must be the newest block: a node block whose
  // install CAS lost, so no register ever held it.
  void pop(QueueChain made) {
    APRAM_CHECK_MSG(used_ > 0 && made == &chunks_.back()[used_ - 1],
                    "queue block store pops only its newest block");
    --used_;
  }

  // Blocks allocated and not popped.
  std::size_t blocks() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunk + used_;
  }

 private:
  static constexpr std::size_t kChunk = 1024;
  std::vector<std::unique_ptr<QueueBlock[]>> chunks_;
  std::size_t used_ = kChunk;
  QueueChain leaf_ = &kEmptyQueueChain;
};

// The oldest block at or before `x` in its chain that `covers`, given that
// `x` does, the empty chain does not, and `covers` is monotone along the
// chain. Skew-binary jumps make this O(log depth(x)) steps.
template <class Pred>
QueueChain earliest(QueueChain x, Pred covers) {
  for (;;) {
    if (covers(x->jump)) {
      x = x->jump;
    } else if (covers(x->prev)) {
      x = x->prev;
    } else {
      return x;
    }
  }
}

}  // namespace queue_detail

// The block-appending node refresher (farray::NodeRefresherFor): extend the
// node's chain with one block covering what the children appended since
// `cur`, allocated from the refreshing process's store. Children that have
// not moved leave `cur` as it is. A lost CAS returns its block to the store
// (farray::DiscardingRefresherFor): only `pid` allocates from its store, and
// it allocates nothing between the refresh and the CAS, so the block is
// still the newest one.
struct QueueRefresh {
  queue_detail::BlockStore* stores;  // [n], owned by the queue

  static QueueChain identity() { return &kEmptyQueueChain; }

  QueueChain refresh(int pid, QueueChain cur, QueueChain l,
                     QueueChain r) const {
    if (l == cur->left && r == cur->right) return cur;
    return stores[pid].make(cur, l, r, l->enqs + r->enqs, l->deqs + r->deqs,
                            0);
  }

  void discard(int pid, QueueChain cur, QueueChain made) const {
    if (made != cur) stores[pid].pop(made);
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
  using Tree = farray::FArrayTree<B, QueueChain, QueueRefresh>;

  PolylogQueue(typename B::Mem& mem, int num_procs)
      : stores_(std::make_unique<queue_detail::BlockStore[]>(
            static_cast<std::size_t>(num_procs))),
        tree_(mem, num_procs, QueueRefresh{stores_.get()}) {}

  int num_procs() const { return tree_.num_procs(); }
  int height() const { return tree_.height(); }

  // Appends the value; on return the enqueue has a fixed position in the
  // agreed total order. 1 + 4h accesses solo, ≤ 1 + 8h contended.
  Coro<void> enqueue(Ctx ctx, std::int64_t v) {
    ctx.op_begin(obs::OpKind::kEnqueue);
    co_await tree_.write(ctx, store(ctx.pid()).append_op(true, v));
    ctx.op_end(obs::OpKind::kEnqueue);
  }

  // Removes and returns the oldest value, or -1 when the queue is empty at
  // the dequeue's linearization point (QueueSpec's totalized dequeue).
  // 2 + 4h accesses solo, ≤ 2 + 8h contended.
  Coro<std::int64_t> dequeue(Ctx ctx) {
    const int p = ctx.pid();
    ctx.op_begin(obs::OpKind::kDequeue);
    const QueueChain own = store(p).append_op(false, 0);
    co_await tree_.write(ctx, own);
    QueueChain root = co_await tree_.read_f(ctx);
    const std::int64_t resp = respond(p, own, root);
    ctx.op_end(obs::OpKind::kDequeue);
    co_return resp;
  }

  // Blocks in process p's store: its leaf blocks plus the node blocks its
  // installs published.
  std::size_t blocks(int p) const {
    return stores_[static_cast<std::size_t>(p)].blocks();
  }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    tree_.export_contention_gauges(registry, prefix);
  }

 private:
  queue_detail::BlockStore& store(int p) {
    return stores_[static_cast<std::size_t>(p)];
  }

  // The response of p's dequeue `own`, from the root value read after its
  // walk. Local work only: bottom-up to own's root block and rank, then
  // top-down to the enqueue it returns.
  std::int64_t respond(int p, QueueChain own, QueueChain root) const {
    using queue_detail::earliest;
    const int h = tree_.height();
    const std::uint64_t slot =
        std::uint64_t{1} << h | static_cast<std::uint64_t>(p);
    // Whether p's path turns right below depth k.
    const auto right = [&](int k) { return (slot >> (h - 1 - k) & 1) != 0; };
    std::array<QueueChain, 32> heads{};  // newest block per depth, from root
    heads[0] = root;
    for (int k = 0; k < h; ++k) {
      heads[k + 1] = right(k) ? heads[k]->right : heads[k]->left;
    }
    APRAM_CHECK_MSG(heads[h] == own,
                    "dequeue missing from the root after its refresh walk — "
                    "the double-refresh helping lemma was violated");

    // b = the block covering own at depth k; d = own's dequeue number in
    // that chain (left range before right range within each block).
    QueueChain b = own;
    std::uint64_t d = own->deqs;
    for (int k = h - 1; k >= 0; --k) {
      if (right(k)) {
        b = earliest(heads[k],
                     [d](QueueChain x) { return x->right->deqs >= d; });
        d += b->left->deqs;
      } else {
        b = earliest(heads[k],
                     [d](QueueChain x) { return x->left->deqs >= d; });
        d += b->prev->right->deqs;
      }
    }
    const QueueChain prev = b->prev;
    const std::uint64_t i = d - prev->deqs;
    if (i > prev->size + b->enqs - prev->enqs) return -1;

    // Enqueue number e of the root order: down from b, at each depth the
    // covering block, then its left range or its right range.
    std::uint64_t e = prev->enqs - prev->size + i;
    const auto covers_e = [&e](QueueChain x) { return x->enqs >= e; };
    QueueChain x = b;
    for (int k = 0; k < h; ++k) {
      x = earliest(x, covers_e);
      const std::uint64_t e_left = e - x->prev->right->enqs;
      if (e_left <= x->left->enqs) {
        e = e_left;
        x = x->left;
      } else {
        e -= x->left->enqs;
        x = x->right;
      }
    }
    x = earliest(x, covers_e);
    APRAM_CHECK_MSG(x->enqs == e && x->prev->enqs + 1 == e,
                    "queue enqueue search did not land on an enqueue");
    return x->value;
  }

  std::unique_ptr<queue_detail::BlockStore[]> stores_;  // [n]
  Tree tree_;
};

// --------------------------------------------------------------------------
// rt convenience wrapper (int-pid call style; thread p calls only pid p's
// entry points — each process's block store is single-threaded).

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
