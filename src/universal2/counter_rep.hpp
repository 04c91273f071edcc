// apram::universal2 — normalized counter representation.
//
// The flagship CounterSpec (§5.1) as a normalized rep. The value lives in
// ONE 16-byte CAS cell {tag, value}. `tag` names the mutation that installed
// the cell:
//
//   tag = (opseq·n + pid + 1) | (announced ? 1<<63 : 0),  0 for the initial
//
// where `announced` is OpId::announced (set once the op is in the help
// queue). The constructor caps opseq so the low part never reaches bit 63,
// and owner_of / opseq_of mask the bit off. Each operation installs at most
// once: under its plain tag by a winning fast-path CAS, which ends the op,
// or under its announced tag after the announce, never both. So tags never
// repeat, and operator== compares the tag alone: a decision CAS
// whose expected tag has been overwritten fails forever, although tags do
// not increase. Sixteen bytes is a cmpxchg16b double word, so rt::Register
// holds the cell inline.
//
// Evidence. The wrap-up of an announced op must decide "did operation
// (q, s) take effect?" even after its install was overwritten. Next to the
// cell sit n CAS registers applied[q]. Each only ever rises, and holds the
// opseq of an announced mutation of q that was installed (or 0). One rule
// keeps them current:
//
//   Before an attempt for op (q, s) CASes over an ANNOUNCED install of
//   (r, t), it raises applied[r] to at least t. It skips the raise only when
//   r == q and t < s.
//
// An unannounced install needs no evidence: nobody but its owner ever
// executes that op, and the owner learned the outcome from its own winning
// CAS. By the same token a lost decision CAS of an unannounced op answers
// {decided=false} at once: the owner is the only process that could have
// installed its tag. Once an op is announced, every install of it carries
// the bit (help_record builds its ids), so the rule above covers every
// install a resolver can ask about.
//
// The r == q skip keeps a process that overwrites its own previous install
// at 1 read + 1 CAS. It is safe because q began op s only after op t had
// finished, so no resolver of (q, t) still needs an answer: a stale helper's
// answer lands in a state-record CAS that fails, since the record has moved
// on. The rule names the op's owner q, never the process executing the
// attempt. A process that drives another pid's op over an install of its
// own still-pending op must raise, or its own op later reads as not applied
// and is installed twice.
//
// applied_opseq() computes q's latest applied mutation for the tests:
// max(applied[q], opseq(tag) if pid(tag) == q, the opseq of q's latest
// winning fast-path CAS). The last term lives in an owner-only, padded
// record that no algorithm step reads; the owner sets it right after its
// winning unannounced CAS (in the simulator within the same scheduler grant,
// so no crash falls between the two).
//
// The raise is wait-free. It reads applied[r], CASes from the value it read,
// and loops only while that value is below t. A lost CAS means another
// raiser wrote a larger value. If that value is at least t, the next read
// ends the loop. A value below t comes from an attempt whose prep read the
// cell while an older install of r was current, that is, before (r, t) was
// installed and so before this raise began. Such a prep, when the raise
// began, was either held by one process (its own fast-path prep, a prepare
// result not yet in a record, or a candidate read from a record) or was a
// state record's candidate. That is at most one per process and one per
// record, and each such prep wins at most one CAS, because values only
// grow. So fewer than 2n of the raiser's CASes lose. Raising only over
// announced installs makes raises rarer and the bound still holds.
//
// Resolution, after a lost decision CAS for announced (q, s): reread the
// cell, where tag == tag_of(q, s) means applied; otherwise read applied[q],
// where at least s means applied (whoever overwrote the install raised it);
// otherwise the op definitively did not take effect. The lost CAS proves
// the cell left `expected`, and that tag never returns: the leave-invariant
// of wait_free_sim.hpp, with "seq advanced" read as "tag left". Mutations
// respond 0 (CounterSpec), so the evidence needs no response column.
//
// Costs: a read is 1 read (prepare resolves it; reads linearize at the
// single cell read). A fast-path mutation is 1 read + 1 CAS over the initial
// cell or any unannounced install, contended or not, and a lost fast CAS
// adds nothing before the next prepare. Over another pid's announced
// install, the raise adds 1 read, plus a CAS while applied[r] is below t and
// one more read per lost raise CAS; a lost decision CAS of an announced op
// costs 2 reads. Contrast with the paper construction's n²−1 reads + n+1
// writes per op (§6.2), the gap bench_e6 measures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/backend.hpp"
#include "objects/specs.hpp"
#include "universal2/normalized.hpp"
#include "util/assert.hpp"

namespace apram::universal2 {

template <class B>
class CounterRep {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Invocation = CounterSpec::Invocation;
  using Response = CounterSpec::Response;

  struct Cell {
    std::uint64_t tag = 0;  // install id; == compares this alone
    std::int64_t value = 0;

    friend bool operator==(const Cell& a, const Cell& b) {
      return a.tag == b.tag;
    }
  };

  struct Prep {
    bool done = false;
    Response resp = 0;
    Cell expected{};  // the decision CAS (unused when done)
    Cell desired{};
  };

  static obs::OpKind op_kind(const Invocation&) {
    return obs::OpKind::kU2Execute;
  }
  static bool read_only(const Invocation& inv) {
    return inv.kind == CounterSpec::Kind::kRead;
  }

  CounterRep(typename B::Mem& mem, int num_procs)
      : n_(num_procs), fast_applied_(static_cast<std::size_t>(num_procs)) {
    APRAM_CHECK(num_procs >= 1);
    const auto n = static_cast<std::uint64_t>(n_);
    max_opseq_ = (kAnnouncedBit - 1 - n) / n;
    cell_ = &mem.template make_cas<Cell>(Cell{});
    applied_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      applied_.push_back(&mem.template make_cas<std::uint64_t>(0));
    }
  }

  int num_procs() const { return n_; }

  // The tag op `id` installs.
  std::uint64_t tag_of(OpId id) const {
    APRAM_CHECK_MSG(id.opseq <= max_opseq_,
                    "counter tag opseq*n + pid + 1 reaches the announced bit");
    return (id.opseq * static_cast<std::uint64_t>(n_) +
            static_cast<std::uint64_t>(id.pid) + 1) |
           (id.announced ? kAnnouncedBit : 0);
  }

  Coro<Prep> prepare(Ctx ctx, OpId id, const Invocation& inv) {
    const Cell cur = co_await ctx.read(*cell_);
    Prep p;
    if (cur.tag == tag_of(id)) {  // already applied by a helper
      p.done = true;
      co_return p;
    }
    if (inv.kind == CounterSpec::Kind::kRead) {
      p.done = true;
      p.resp = cur.value;  // linearizes at the cell read
      co_return p;
    }
    p.expected = cur;
    p.desired = Cell{tag_of(id), CounterSpec::apply(cur.value, inv).first};
    co_return p;
  }

  Coro<Outcome<Response>> attempt(Ctx ctx, OpId id, const Invocation& inv,
                                  const Prep& prep) {
    (void)inv;
    const std::uint64_t over = prep.expected.tag;
    if ((over & kAnnouncedBit) != 0) {
      const int r = owner_of(over);
      const std::uint64_t t = opseq_of(over);
      if (r != id.pid || t >= id.opseq) {
        co_await raise(ctx, r, t);
      }
    }
    const bool won = co_await ctx.cas(*cell_, prep.expected, prep.desired);
    if (won) {
      if (!id.announced) {
        fast_applied_[static_cast<std::size_t>(id.pid)].opseq = id.opseq;
      }
      co_return Outcome<Response>{true, 0};
    }
    // Only the owner executes an unannounced op, so it was not installed.
    if (!id.announced) co_return Outcome<Response>{false, 0};
    // A rival helper may have installed this very op; the cell, then
    // applied[q], answer definitively.
    const Cell cur = co_await ctx.read(*cell_);
    if (cur.tag == tag_of(id)) co_return Outcome<Response>{true, 0};
    const std::uint64_t applied = co_await ctx.read(applied_at(id.pid));
    co_return Outcome<Response>{applied >= id.opseq, 0};
  }

  // Test-only windows. applied_opseq(q) peeks, so it needs a backend whose
  // registers have peek() (the simulator) and a quiescent object.
  const typename B::template CasReg<Cell>& cell_register() const {
    return *cell_;
  }
  std::uint64_t applied_opseq(int q) const {
    const Cell cur = cell_->peek();
    std::uint64_t latest =
        std::max(applied_at(q).peek(),
                 fast_applied_[static_cast<std::size_t>(q)].opseq);
    if (cur.tag != 0 && owner_of(cur.tag) == q) {
      latest = std::max(latest, opseq_of(cur.tag));
    }
    return latest;
  }

 private:
  static constexpr std::uint64_t kAnnouncedBit = std::uint64_t{1} << 63;

  // The owner's latest winning fast-path opseq (see the header).
  struct alignas(64) FastApplied {
    std::uint64_t opseq = 0;
  };

  int owner_of(std::uint64_t tag) const {
    return static_cast<int>(((tag & ~kAnnouncedBit) - 1) %
                            static_cast<std::uint64_t>(n_));
  }
  std::uint64_t opseq_of(std::uint64_t tag) const {
    return ((tag & ~kAnnouncedBit) - 1) / static_cast<std::uint64_t>(n_);
  }

  // Raises applied[r] to at least t (wait-free; see the header).
  Coro<void> raise(Ctx ctx, int r, std::uint64_t t) {
    auto& reg = applied_at(r);
    for (;;) {
      const std::uint64_t seen = co_await ctx.read(reg);
      if (seen >= t) co_return;
      const bool won = co_await ctx.cas(reg, seen, t);
      if (won) co_return;
    }
  }

  typename B::template CasReg<std::uint64_t>& applied_at(int q) const {
    APRAM_CHECK(q >= 0 && q < n_);
    return *applied_[static_cast<std::size_t>(q)];
  }

  int n_;
  std::uint64_t max_opseq_ = 0;  // the largest opseq whose tag fits
  typename B::template CasReg<Cell>* cell_ = nullptr;
  std::vector<typename B::template CasReg<std::uint64_t>*> applied_;
  std::vector<FastApplied> fast_applied_;  // [n], owner-only
};

}  // namespace apram::universal2

#include "universal2/wait_free_sim.hpp"

namespace apram::universal2 {

// Convenience facade: a wait-free counter over any backend.
template <class B>
class Counter2 {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Sim = WaitFreeSim<B, CounterRep<B>>;
  using Config = typename Sim::Config;

  Counter2(typename B::Mem& mem, int num_procs, Config cfg = {})
      : rep_(mem, num_procs), sim_(mem, num_procs, rep_, cfg) {}

  Coro<std::int64_t> inc(Ctx ctx, std::int64_t by = 1) {
    return sim_.execute(ctx, CounterSpec::inc(by));
  }
  Coro<std::int64_t> dec(Ctx ctx, std::int64_t by = 1) {
    return sim_.execute(ctx, CounterSpec::dec(by));
  }
  Coro<std::int64_t> reset(Ctx ctx, std::int64_t to = 0) {
    return sim_.execute(ctx, CounterSpec::reset(to));
  }
  Coro<std::int64_t> read(Ctx ctx) {
    return sim_.execute(ctx, CounterSpec::read());
  }

  CounterRep<B>& rep() { return rep_; }
  const CounterRep<B>& rep() const { return rep_; }
  Sim& sim() { return sim_; }
  const Sim& sim() const { return sim_; }

 private:
  CounterRep<B> rep_;
  Sim sim_;
};

}  // namespace apram::universal2
