// apram::universal2 — a bounded wait-free help queue.
//
// The queue that makes the slow path wait-free (cf. Telamon's HelpQueue /
// Timnat–Petrank's help array). Capacity is exactly n — each process owns
// ONE announce cell and has at most one pending operation — so "full queue"
// backpressure cannot arise from the queue itself: a process that wants to
// announce a second operation must first complete (and clear) its current
// one, which the simulator's execute() loop guarantees.
//
// Shape: n CAS-installed cells, one per process. Every mutation of cell p
// is a CAS by p itself (stamped values, owner-only → the CAS cannot lose),
// which keeps each queue operation a bounded number of accesses:
//
//   enqueue  — n reads (bakery scan for a fresh FIFO stamp) + 1 CAS
//   peek     — n reads, returns the active announce with the minimum
//              (stamp, pid) — the FIFO head every helper converges on
//   dequeue  — 1 read + 1 CAS (deactivate own cell)
//
// FIFO stamps are bakery-style: enqueue picks max(active stamps)+1. Two
// concurrent enqueuers may pick equal stamps; the (stamp, pid) tie-break
// keeps the head unique. Stamps taken while an op with a larger stamp is
// already announced are impossible (the scan reads all cells), so an
// announced op is overtaken at most once per concurrent enqueuer — the
// bounded-overtaking property the help-bound argument uses.
//
// Cells follow the Stamped idiom: `seq` increases on every install and
// operator== compares seq alone, so a CAS against a stale read fails.
// A process that crashes mid-enqueue (after the bakery scan, before the
// CAS) leaves the queue untouched; after the CAS its announce stays active
// forever and helpers still complete the operation — the crash cases
// tests/universal2_fault_test.cpp sweeps.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "api/backend.hpp"
#include "util/assert.hpp"

namespace apram::universal2 {

template <class B, class Op>
  requires std::is_default_constructible_v<Op> &&
           std::is_copy_constructible_v<Op>
class HelpQueue {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;

  struct Cell {
    std::uint64_t seq = 0;  // install counter; == compares this alone
    bool active = false;
    std::uint64_t stamp = 0;  // FIFO priority (bakery number)
    std::uint64_t opseq = 0;  // which op of the owner is announced
    Op op{};

    friend bool operator==(const Cell& a, const Cell& b) {
      return a.seq == b.seq;
    }
  };

  // What peek() hands to helpers.
  struct Head {
    int pid = -1;
    std::uint64_t opseq = 0;
    std::uint64_t stamp = 0;
    Op op{};
  };

  HelpQueue(typename B::Mem& mem, int num_procs) : n_(num_procs) {
    APRAM_CHECK(num_procs >= 1);
    cells_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      cells_.push_back(&mem.template make_cas<Cell>(Cell{}));
    }
  }

  int num_procs() const { return n_; }

  // Announce (opseq, op) in the caller's cell. The caller must not already
  // have an active announce (capacity: one pending op per process).
  Coro<void> enqueue(Ctx ctx, std::uint64_t opseq, Op op) {
    const int p = ctx.pid();
    std::uint64_t max_stamp = 0;
    for (int q = 0; q < n_; ++q) {
      Cell c = co_await ctx.read(cell(q));
      if (c.active && c.stamp > max_stamp) max_stamp = c.stamp;
    }
    Cell cur = co_await ctx.read(cell(p));
    APRAM_CHECK_MSG(!cur.active, "help queue: second announce while pending");
    Cell next;
    next.seq = cur.seq + 1;
    next.active = true;
    next.stamp = max_stamp + 1;
    next.opseq = opseq;
    next.op = std::move(op);
    bool ok = co_await ctx.cas(cell(p), cur, next);
    APRAM_CHECK_MSG(ok, "help queue: owner-only install lost a CAS");
  }

  // Retract the caller's announce (call after its operation is complete).
  Coro<void> dequeue(Ctx ctx) {
    const int p = ctx.pid();
    Cell cur = co_await ctx.read(cell(p));
    APRAM_CHECK_MSG(cur.active, "help queue: dequeue without an announce");
    Cell next;
    next.seq = cur.seq + 1;
    next.active = false;
    bool ok = co_await ctx.cas(cell(p), cur, next);
    APRAM_CHECK_MSG(ok, "help queue: owner-only retract lost a CAS");
  }

  // The FIFO head: the active announce with minimum (stamp, pid), or
  // nullopt when the queue is empty. Concurrent helpers may see different
  // heads (announces come and go during the scan); each helps what it saw —
  // correctness never depends on agreement, only the help bound does, and
  // that through bounded overtaking.
  Coro<std::optional<Head>> peek(Ctx ctx) {
    std::optional<Head> best;
    for (int q = 0; q < n_; ++q) {
      Cell c = co_await ctx.read(cell(q));
      if (!c.active) continue;
      const bool better =
          !best.has_value() || c.stamp < best->stamp ||
          (c.stamp == best->stamp && q < best->pid);
      if (better) best = Head{q, c.opseq, c.stamp, c.op};
    }
    co_return best;
  }

  // Test/debug access.
  const typename B::template CasReg<Cell>& cell_at(int p) const {
    return cell(p);
  }

 private:
  typename B::template CasReg<Cell>& cell(int q) const {
    APRAM_CHECK(q >= 0 && q < n_);
    return *cells_[static_cast<std::size_t>(q)];
  }

  int n_;
  std::vector<typename B::template CasReg<Cell>*> cells_;
};

}  // namespace apram::universal2
