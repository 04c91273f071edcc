// apram::universal2 — a wait-free sorted linked-list set (normalized rep).
//
// Harris-style sorted list (mark-then-unlink) recast as a NormalizedRep so
// WaitFreeSim makes it wait-free (cf. Telamon's NormalizedLinkedList):
//
//   * Nodes live in a bounded pool of registers, partitioned per EXECUTOR
//     process: whoever runs prepare() allocates from its own partition, so
//     the node's key register keeps the single-writer discipline even when
//     a helper prepares someone else's insert. Nodes are never recycled
//     within a run (a removed node's mark is the permanent evidence the
//     wrap-up reads); size capacity_per_proc for inserts + failed attempts.
//   * A node's link is ONE stamped CAS value {seq, next, marked, owner}:
//     mark bit and successor swing together (Harris's pointer tagging),
//     seq-only equality makes every link CAS ABA-free, and the owner field
//     records WHICH operation marked the node — the remove certificate.
//   * insert(k): search; duplicate → done(false). Else allocate a FRESH
//     node X (fresh per attempt — abandoned candidates must stay forever
//     unlinkable), privately freeze X.next to the successor, and emit the
//     decision CAS pred.next: {seen} → {X}. A lost CAS of an unannounced
//     op (fast path: the owner is the only executor) → definitively
//     failed, with no further access. Resolve after a lost CAS of an
//     announced op: search finds X unmarked (unique-key invariant) →
//     applied; X.next advanced past the freeze (only reachable nodes get
//     their link CASed) → applied (then marked/unlinked); otherwise the lost
//     CAS itself proves pred.next moved past the candidate's expected stamp,
//     so the candidate is dead forever (leave-invariant) → definitively
//     failed.
//   * remove(k): search; absent → done(false). Else decision CAS marks the
//     victim's link {unmarked} → {marked, owner=(pid,opseq)}. Marks are
//     permanent and a marked link is frozen (every link CAS expects an
//     unmarked stamp it read), so the resolve of an announced op reads the
//     victim's link: marked with our owner id → applied; anything else →
//     failed forever. An unannounced op's lost CAS fails at once.
//   * contains(k): one read-only pass that skips marked nodes; resolves in
//     prepare() (fast-path only, never helped). Next edges always point to
//     strictly larger keys (insert splices between smaller and larger;
//     unlink shortcuts forward), so every traversal is acyclic and visits
//     at most pool-size nodes — wait-free by construction.
//   * search() physically unlinks marked nodes it passes (restarting from
//     the head when the splice CAS loses) — the only unbounded loop, and
//     exactly the one the help-queue convergence argument bounds: every
//     splice loss means another process changed the same link, i.e. made
//     progress on an operation all helpers eventually share.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "universal2/normalized.hpp"
#include "universal2/wait_free_sim.hpp"
#include "util/assert.hpp"

namespace apram::universal2 {

template <class B>
class SortedListRep {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;

  enum class OpType : std::uint8_t { kInsert, kRemove, kContains };

  struct Invocation {
    OpType op = OpType::kContains;
    std::int64_t key = 0;
  };
  using Response = std::int64_t;  // insert/remove: took effect; contains: in

  static constexpr std::int32_t kNull = -1;
  static constexpr std::int32_t kHead = -2;  // the head sentinel "cell"

  struct Link {
    std::uint64_t seq = 0;  // == compares this alone (ABA-free link CAS)
    std::int32_t next = kNull;
    bool marked = false;
    std::int32_t owner_pid = -1;     // who marked this node (remove cert)
    std::uint64_t owner_opseq = 0;

    friend bool operator==(const Link& a, const Link& b) {
      return a.seq == b.seq;
    }
  };

  struct Prep {
    bool done = false;
    Response resp = 0;
    std::int32_t cell = kNull;  // whose link the decision CAS swings
    Link expected{};
    Link desired{};
    std::int32_t node = kNull;  // insert: the freshly allocated node
    std::uint64_t node_frozen_seq = 0;  // node's link seq after the freeze
  };

  static obs::OpKind op_kind(const Invocation& inv) {
    switch (inv.op) {
      case OpType::kInsert:
        return obs::OpKind::kU2Insert;
      case OpType::kRemove:
        return obs::OpKind::kU2Remove;
      case OpType::kContains:
        return obs::OpKind::kU2Contains;
    }
    return obs::OpKind::kUser;
  }
  static bool read_only(const Invocation& inv) {
    return inv.op == OpType::kContains;
  }

  static Invocation insert(std::int64_t k) { return {OpType::kInsert, k}; }
  static Invocation remove(std::int64_t k) { return {OpType::kRemove, k}; }
  static Invocation contains(std::int64_t k) { return {OpType::kContains, k}; }

  SortedListRep(typename B::Mem& mem, int num_procs, int capacity_per_proc)
      : n_(num_procs), cap_per_proc_(capacity_per_proc) {
    APRAM_CHECK(num_procs >= 1 && capacity_per_proc >= 1);
    head_ = &mem.template make_cas<Link>(Link{});
    const int cap = n_ * cap_per_proc_;
    keys_.reserve(static_cast<std::size_t>(cap));
    links_.reserve(static_cast<std::size_t>(cap));
    for (int i = 0; i < cap; ++i) {
      const int writer = i / cap_per_proc_;  // partition owner
      keys_.push_back(&mem.template make<std::int64_t>(0, writer));
      links_.push_back(&mem.template make_cas<Link>(Link{}));
    }
    locals_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      locals_.push_back(std::make_unique<Local>());
    }
  }

  int num_procs() const { return n_; }
  int capacity_per_proc() const { return cap_per_proc_; }
  std::uint64_t allocated(int p) const {
    return locals_[static_cast<std::size_t>(p)]->next_slot;
  }

  Coro<Prep> prepare(Ctx ctx, OpId id, const Invocation& inv) {
    Prep p;
    if (inv.op == OpType::kContains) {
      Response in = co_await contains_pass(ctx, inv.key);
      p.done = true;
      p.resp = in;
      co_return p;
    }
    Search s = co_await search(ctx, inv.key);
    const bool present = s.curr != kNull && s.curr_key == inv.key;
    if (inv.op == OpType::kInsert) {
      if (present) {
        p.done = true;
        p.resp = 0;
        co_return p;
      }
      // Fresh node from the EXECUTOR's partition, initialized privately:
      // write the key, then freeze the link onto the successor seen by the
      // search. Private until (and unless) the decision CAS publishes it.
      const std::int32_t x = alloc(ctx.pid());
      co_await ctx.write(key_reg(x), inv.key);
      Link xcur = co_await ctx.read(link_reg(x));
      Link frozen;
      frozen.seq = xcur.seq + 1;
      frozen.next = s.curr;
      bool froze = co_await ctx.cas(link_reg(x), xcur, frozen);
      APRAM_CHECK_MSG(froze, "fresh node link is private until published");
      p.cell = s.pred_cell;
      p.expected = s.pred_link;
      p.desired.seq = s.pred_link.seq + 1;
      p.desired.next = x;
      p.desired.owner_pid = id.pid;
      p.desired.owner_opseq = id.opseq;
      p.node = x;
      p.node_frozen_seq = frozen.seq;
      co_return p;
    }
    // kRemove
    if (!present) {
      p.done = true;
      p.resp = 0;
      co_return p;
    }
    p.cell = s.curr;
    p.expected = s.curr_link;
    p.desired.seq = s.curr_link.seq + 1;
    p.desired.next = s.curr_link.next;
    p.desired.marked = true;
    p.desired.owner_pid = id.pid;
    p.desired.owner_opseq = id.opseq;
    co_return p;
  }

  Coro<Outcome<Response>> attempt(Ctx ctx, OpId id, const Invocation& inv,
                                  const Prep& prep) {
    bool won = co_await ctx.cas(link_at(prep.cell), prep.expected,
                                prep.desired);
    if (won) {
      co_return Outcome<Response>{true, 1};
    }
    // Only the owner executes an unannounced candidate (OpId::announced), so
    // a lost CAS means its node was never linked and its mark never set.
    if (!id.announced) {
      co_return Outcome<Response>{false, 0};
    }
    if (inv.op == OpType::kInsert) {
      // Did X get linked anyway (a rival helper executed this candidate
      // first)? Unique-key invariant: if X is in the list unmarked, a
      // search for its key returns exactly X.
      Search s = co_await search(ctx, inv.key);
      if (s.curr == prep.node) {
        co_return Outcome<Response>{true, 1};
      }
      Link xn = co_await ctx.read(link_reg(prep.node));
      if (xn.seq > prep.node_frozen_seq) {
        // Only a reachable node's link gets CASed (mark or splice), so X
        // was linked — inserted, then already removed/unlinked.
        co_return Outcome<Response>{true, 1};
      }
      // Our CAS loss proves pred.next moved past the expected stamp, so
      // this candidate can never succeed (leave-invariant): re-prepare.
      co_return Outcome<Response>{false, 0};
    }
    // kRemove: marks are permanent and a marked link is frozen, so the
    // victim's link answers forever.
    Link yn = co_await ctx.read(link_at(prep.cell));
    if (yn.marked && yn.owner_pid == id.pid && yn.owner_opseq == id.opseq) {
      co_return Outcome<Response>{true, 1};
    }
    co_return Outcome<Response>{false, 0};
  }

  // Read-only view of the current membership (unmarked keys in order); one
  // traversal, usable on both backends. Test/judge helper.
  Coro<std::vector<std::int64_t>> snapshot_keys(Ctx ctx) {
    std::vector<std::int64_t> out;
    Link l = co_await ctx.read(*head_);
    std::int32_t curr = l.next;
    while (curr != kNull) {
      Link cl = co_await ctx.read(link_reg(curr));
      std::int64_t ck = co_await ctx.read(key_reg(curr));
      if (!cl.marked) out.push_back(ck);
      curr = cl.next;
    }
    co_return out;
  }

 private:
  struct alignas(64) Local {
    std::uint64_t next_slot = 0;  // within this process's partition
  };

  struct Search {
    std::int32_t pred_cell = kHead;
    Link pred_link{};
    std::int32_t curr = kNull;  // first unmarked node with key >= target
    std::int64_t curr_key = 0;
    Link curr_link{};
  };

  // Harris search: returns (pred, curr) with key(pred) < k <= key(curr),
  // splicing out marked nodes on the way (restart from the head when the
  // splice loses).
  Coro<Search> search(Ctx ctx, std::int64_t k) {
    for (;;) {
      Search s;
      s.pred_cell = kHead;
      Link hl = co_await ctx.read(*head_);
      s.pred_link = hl;
      bool splice_lost = false;
      while (!splice_lost) {
        const std::int32_t curr = s.pred_link.next;
        if (curr == kNull) {
          co_return s;
        }
        Link cl = co_await ctx.read(link_reg(curr));
        if (cl.marked) {
          Link spliced;
          spliced.seq = s.pred_link.seq + 1;
          spliced.next = cl.next;
          bool ok = co_await ctx.cas(link_at(s.pred_cell), s.pred_link,
                                     spliced);
          if (!ok) {
            splice_lost = true;  // restart from the head
            break;
          }
          s.pred_link = spliced;
          continue;
        }
        std::int64_t ck = co_await ctx.read(key_reg(curr));
        if (ck >= k) {
          s.curr = curr;
          s.curr_key = ck;
          s.curr_link = cl;
          co_return s;
        }
        s.pred_cell = curr;
        s.pred_link = cl;
      }
    }
  }

  // contains(): single pass, skip marked, no cleanup, no restarts.
  Coro<Response> contains_pass(Ctx ctx, std::int64_t k) {
    Link l = co_await ctx.read(*head_);
    std::int32_t curr = l.next;
    while (curr != kNull) {
      Link cl = co_await ctx.read(link_reg(curr));
      std::int64_t ck = co_await ctx.read(key_reg(curr));
      if (!cl.marked) {
        if (ck == k) co_return 1;
        if (ck > k) co_return 0;
      }
      curr = cl.next;
    }
    co_return 0;
  }

  std::int32_t alloc(int p) {
    Local& lo = *locals_[static_cast<std::size_t>(p)];
    APRAM_CHECK_MSG(lo.next_slot < static_cast<std::uint64_t>(cap_per_proc_),
                    "universal2 list: node pool partition exhausted");
    const std::int32_t slot = static_cast<std::int32_t>(
        static_cast<std::uint64_t>(p) *
            static_cast<std::uint64_t>(cap_per_proc_) +
        lo.next_slot);
    ++lo.next_slot;
    return slot;
  }

  typename B::template CasReg<Link>& link_at(std::int32_t cell) const {
    if (cell == kHead) return *head_;
    return link_reg(cell);
  }
  typename B::template CasReg<Link>& link_reg(std::int32_t i) const {
    APRAM_CHECK(i >= 0 &&
                i < static_cast<std::int32_t>(links_.size()));
    return *links_[static_cast<std::size_t>(i)];
  }
  typename B::template Reg<std::int64_t>& key_reg(std::int32_t i) const {
    APRAM_CHECK(i >= 0 && i < static_cast<std::int32_t>(keys_.size()));
    return *keys_[static_cast<std::size_t>(i)];
  }

  int n_;
  int cap_per_proc_;
  typename B::template CasReg<Link>* head_ = nullptr;
  std::vector<typename B::template Reg<std::int64_t>*> keys_;
  std::vector<typename B::template CasReg<Link>*> links_;
  std::vector<std::unique_ptr<Local>> locals_;
};

// Convenience facade: a wait-free sorted set over any backend.
template <class B>
class SortedSet {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Rep = SortedListRep<B>;
  using Sim = WaitFreeSim<B, Rep>;
  using Config = typename Sim::Config;

  SortedSet(typename B::Mem& mem, int num_procs, int capacity_per_proc,
            Config cfg = {})
      : rep_(mem, num_procs, capacity_per_proc),
        sim_(mem, num_procs, rep_, cfg) {}

  Coro<std::int64_t> insert(Ctx ctx, std::int64_t key) {
    return sim_.execute(ctx, Rep::insert(key));
  }
  Coro<std::int64_t> remove(Ctx ctx, std::int64_t key) {
    return sim_.execute(ctx, Rep::remove(key));
  }
  Coro<std::int64_t> contains(Ctx ctx, std::int64_t key) {
    return sim_.execute(ctx, Rep::contains(key));
  }

  Rep& rep() { return rep_; }
  const Rep& rep() const { return rep_; }
  Sim& sim() { return sim_; }
  const Sim& sim() const { return sim_; }

 private:
  Rep rep_;
  Sim sim_;
};

}  // namespace apram::universal2
