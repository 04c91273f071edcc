// apram::universal2 — the normalized fast-path/slow-path wait-free
// simulator (Timnat–Petrank shape, written once over the register-backend
// concept so one source runs on sim and rt).
//
// execute(P, inv):
//
//   0. HELP-FIRST — every help_period-th operation peeks the help queue and
//      drives the FIFO head to completion before doing its own work, so an
//      announced operation is helped even by processes that never leave the
//      fast path themselves.
//   1. FAST PATH — up to max_fast_attempts rounds of the rep's normalized
//      steps (prepare → decision CAS → resolve), entirely private: no
//      shared announce, no state record. Uncontended cost = the rep's own
//      cost (counter: 1 read + 1 CAS) — this is what bench_e6 measures
//      against the paper construction's O(n²) scan.
//   2. SLOW PATH — publish a per-process state record (kPending), announce
//      in the bounded HelpQueue, then loop {own record done? else help the
//      FIFO head, then help OWN record}. Every process drives announced
//      records through the same state machine, so the operation completes
//      even if its owner crashes or stalls right after the announce. The
//      self-help step is what keeps the loop wait-free: announce cells are
//      owner-only, so a crashed owner's announce can sit at the queue head
//      forever with its record already kDone — helping it is a no-op, and
//      a waiter that only helped the head would spin. Driving one's own
//      record directly never depends on any other process being live.
//
// State-record machine (one CAS cell per process, Stamped: == is seq-only):
//
//   kIdle ──owner──▶ kPending ──any──▶ kCandidate ──any──▶ kDone
//                        ▲                  │ (resolve: not applied)
//                        └──────────────────┘
//   kDone ──owner──▶ kIdle  (owner collects the response, retracts announce)
//
//   kPending   : run prepare(); install its output (either a resolved
//                response → kDone, or a decision-CAS candidate).
//   kCandidate : execute the decision CAS, then resolve from persistent
//                evidence; "applied" → kDone, "definitively not" → back to
//                kPending for a fresh prepare.
//
// The LEAVE-INVARIANT makes stale helpers harmless: a record leaves
// kCandidate only after the candidate's target cell has left the
// candidate's expected stamp (a successful decision CAS moves it; a failed
// one proves it moved). Cell stamps never repeat, so a stale helper later
// executing an abandoned candidate's CAS necessarily fails — an operation
// can never take effect twice. Helpers that lose a state-record CAS simply
// re-read and continue; every transition bumps the record seq.
//
// Help bound: ctx.op_help(q) is emitted at most once per distinct helped
// process per own operation, so a complete operation span carries ≤ n−1
// kHelp events — the `u2_help=n-1` bound tools/apram-trace certifies
// offline (obs::check_u2_help_bound).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "obs/span.hpp"
#include "universal2/help_queue.hpp"
#include "universal2/normalized.hpp"
#include "util/assert.hpp"

namespace apram::universal2 {

template <class B, class R>
  requires NormalizedRepFor<R, B>
class WaitFreeSim {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Invocation = typename R::Invocation;
  using Response = typename R::Response;
  using Queue = HelpQueue<B, Invocation>;

  struct Config {
    // Fast-path rounds before an op announces itself. 0 forces every
    // mutating op onto the slow path (tests use this to exercise helping).
    int max_fast_attempts = 3;
    // Peek the queue head every k-th operation; 0 disables the periodic
    // check (slow-path waiters still help — only fast-path ops stop
    // looking, which forfeits the wait-freedom guarantee; test-only).
    int help_period = 4;
  };

  enum class Stage : std::uint8_t { kIdle, kPending, kCandidate, kDone };

  struct Rec {
    std::uint64_t seq = 0;  // transition counter; == compares this alone
    std::uint64_t opseq = 0;
    Stage stage = Stage::kIdle;
    typename R::Prep prep{};  // valid at kCandidate
    Response resp{};          // valid at kDone

    friend bool operator==(const Rec& a, const Rec& b) {
      return a.seq == b.seq;
    }
  };

  // `rep` must outlive this simulator; its registers live in the same Mem.
  WaitFreeSim(typename B::Mem& mem, int num_procs, R& rep,
              const std::string& name, Config cfg = {})
      : n_(num_procs),
        cfg_(cfg),
        rep_(&rep),
        queue_(mem, num_procs, name) {
    APRAM_CHECK(num_procs >= 1);
    APRAM_CHECK(cfg.max_fast_attempts >= 0);
    states_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      states_.push_back(&mem.template make_cas<Rec>(
          name + ".state[" + std::to_string(p) + "]", Rec{}));
    }
    locals_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      locals_.push_back(std::make_unique<Local>());
      locals_.back()->help_epoch.assign(static_cast<std::size_t>(n_), 0);
    }
  }

  int num_procs() const { return n_; }
  const Config& config() const { return cfg_; }
  R& rep() { return *rep_; }
  Queue& queue() { return queue_; }

  Coro<Response> execute(Ctx ctx, Invocation inv) {
    const int p = ctx.pid();
    Local& lo = local(p);
    const std::uint64_t opseq = ++lo.next_opseq;
    const OpId id{p, opseq};
    const obs::OpKind kind = R::op_kind(inv);
    ctx.op_begin(kind);
    ++lo.op_epoch;

    // 0. Help-first discipline.
    if (cfg_.help_period > 0 &&
        lo.ops_started++ % static_cast<std::uint64_t>(cfg_.help_period) ==
            0) {
      std::optional<typename Queue::Head> head = co_await queue_.peek(ctx);
      if (head.has_value()) {
        co_await help_record(ctx, *head);
      }
    }

    // 1. Fast path.
    for (int attempt = 0;; ++attempt) {
      if (!R::read_only(inv) && attempt >= cfg_.max_fast_attempts) break;
      ctx.op_phase(obs::Phase::kFastPath, attempt);
      typename R::Prep prep = co_await rep_->prepare(ctx, id, inv);
      if (prep.done) {
        ctx.op_end(kind);
        co_return prep.resp;
      }
      APRAM_CHECK_MSG(!R::read_only(inv),
                      "read-only prepare must resolve the operation");
      Outcome<Response> out = co_await rep_->attempt(ctx, id, inv, prep);
      if (out.decided) {
        ctx.op_end(kind);
        co_return out.resp;
      }
    }

    // 2. Slow path: publish the record, announce, help until done.
    ++lo.slow_entries;
    ctx.op_phase(obs::Phase::kSlowPath);
    Rec cur = co_await ctx.read(state(p));
    APRAM_CHECK_MSG(cur.stage == Stage::kIdle,
                    "state record not retired before the next op");
    Rec pend;
    pend.seq = cur.seq + 1;
    pend.opseq = opseq;
    pend.stage = Stage::kPending;
    bool installed = co_await ctx.cas(state(p), cur, pend);
    APRAM_CHECK_MSG(installed, "state record is owner-installed from kIdle");
    co_await queue_.enqueue(ctx, opseq, inv);
    for (;;) {
      Rec st = co_await ctx.read(state(p));
      if (st.stage == Stage::kDone) {
        APRAM_CHECK(st.opseq == opseq);
        Response resp = st.resp;
        Rec idle;
        idle.seq = st.seq + 1;
        idle.opseq = opseq;
        idle.stage = Stage::kIdle;
        bool retired = co_await ctx.cas(state(p), st, idle);
        APRAM_CHECK_MSG(retired, "helpers never advance a kDone record");
        co_await queue_.dequeue(ctx);
        ctx.op_end(kind);
        co_return resp;
      }
      std::optional<typename Queue::Head> head = co_await queue_.peek(ctx);
      APRAM_CHECK_MSG(head.has_value(),
                      "own announce is active while the op is pending");
      co_await help_record(ctx, *head);
      if (head->pid != p) {
        // Self-reliance: the head may be a dead announce (crashed owner,
        // record kDone but never retracted) — drive our own record too.
        typename Queue::Head own;
        own.pid = p;
        own.opseq = opseq;
        own.op = inv;
        co_await help_record(ctx, own);
      }
    }
  }

  // --- Introspection for tests and benches --------------------------------

  std::uint64_t slow_path_entries(int p) const { return local(p).slow_entries; }
  std::uint64_t ops_started(int p) const { return local(p).ops_started; }
  const typename B::template CasReg<Rec>& state_at(int p) const {
    return state(p);
  }

 private:
  struct alignas(64) Local {
    std::uint64_t next_opseq = 0;
    std::uint64_t ops_started = 0;
    std::uint64_t slow_entries = 0;
    std::uint64_t op_epoch = 0;  // bumped per own op; dedups kHelp emission
    std::vector<std::uint64_t> help_epoch;  // [n] last epoch that helped q
  };

  // Drives q's announced record until it is kDone (or retired / a different
  // incarnation). Lost record CASes re-read and continue; every iteration
  // either advances the record or observes someone else's advance.
  Coro<void> help_record(Ctx ctx, typename Queue::Head h) {
    const int p = ctx.pid();
    Local& lo = local(p);
    if (h.pid != p && lo.help_epoch[static_cast<std::size_t>(h.pid)] !=
                          lo.op_epoch) {
      lo.help_epoch[static_cast<std::size_t>(h.pid)] = lo.op_epoch;
      ctx.op_help(h.pid);
    }
    const OpId id{h.pid, h.opseq};
    for (;;) {
      Rec st = co_await ctx.read(state(h.pid));
      if (st.opseq != h.opseq) co_return;  // stale announce: other incarnation
      if (st.stage == Stage::kIdle || st.stage == Stage::kDone) co_return;
      if (st.stage == Stage::kPending) {
        typename R::Prep prep = co_await rep_->prepare(ctx, id, h.op);
        Rec next;
        next.seq = st.seq + 1;
        next.opseq = h.opseq;
        if (prep.done) {
          next.stage = Stage::kDone;
          next.resp = prep.resp;
        } else {
          next.stage = Stage::kCandidate;
          next.prep = prep;
        }
        bool won = co_await ctx.cas(state(h.pid), st, next);
        if (won && next.stage == Stage::kDone) co_return;
      } else {  // Stage::kCandidate
        Outcome<Response> out = co_await rep_->attempt(ctx, id, h.op, st.prep);
        Rec next;
        next.seq = st.seq + 1;
        next.opseq = h.opseq;
        if (out.decided) {
          next.stage = Stage::kDone;
          next.resp = out.resp;
        } else {
          next.stage = Stage::kPending;
        }
        bool won = co_await ctx.cas(state(h.pid), st, next);
        if (won && next.stage == Stage::kDone) co_return;
      }
    }
  }

  typename B::template CasReg<Rec>& state(int q) const {
    APRAM_CHECK(q >= 0 && q < n_);
    return *states_[static_cast<std::size_t>(q)];
  }
  Local& local(int p) const {
    APRAM_CHECK(p >= 0 && p < n_);
    return *locals_[static_cast<std::size_t>(p)];
  }

  int n_;
  Config cfg_;
  R* rep_;
  Queue queue_;
  std::vector<typename B::template CasReg<Rec>*> states_;
  std::vector<std::unique_ptr<Local>> locals_;
};

}  // namespace apram::universal2
