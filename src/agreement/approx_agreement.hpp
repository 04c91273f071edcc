// Wait-free approximate agreement (Figure 2).
//
// The object is an n-element array r of single-writer entries, each holding
// a preference and a round number (round 0 = ⊥, "no input yet"). A process
// is a *leader* if its round is maximal. The output loop:
//
//   1. scan all entries (one read each, arbitrary order);
//   2. E := preferences of entries whose round trails P's by at most one;
//      L := preferences of the leaders;
//   3. if |range(E)| < ε/2       — return own preference;
//      elif |range(L)| < ε/2 or the advance flag is set
//                               — write [midpoint(L), round+1], clear flag;
//      else                     — set the advance flag (forcing one rescan
//                                 before advancing).
//
// Theorem 5: every output completes within (2n+1)·log2(Δ/ε) + O(n) steps,
// and all outputs lie within an ε-interval inside the input range.
//
// One backend template; ApproxAgreementSim and rt::ApproxAgreementRT wrap it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "agreement/approx_spec.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram {

// Theorem 5's per-process step bound with the constant slack every check of
// it uses: an output() finishes within (2n+1)·(log2(Δ/ε)+3) + 8n accesses,
// where log_ratio = log2(Δ/ε).
constexpr double agreement_step_bound(int n, double log_ratio) {
  return (2.0 * n + 1.0) * (log_ratio + 3.0) + 8.0 * n;
}

template <class B>
class ApproxAgreement {
 public:
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  // One entry of the shared array r.
  struct Entry {
    double prefer = 0.0;
    std::int64_t round = 0;  // 0 means ⊥: no input yet
  };

  // One register write, as recorded in the write log (used by the tests
  // that check Lemmas 1-3 on actual executions).
  struct WriteRecord {
    int pid;
    std::int64_t round;
    double prefer;
  };

  ApproxAgreement(typename B::Mem& mem, int num_procs, double epsilon)
      : n_(num_procs), eps_(epsilon) {
    APRAM_CHECK(num_procs >= 1);
    APRAM_CHECK_MSG(epsilon > 0.0, "epsilon must be positive");
    r_.reserve(static_cast<std::size_t>(n_));
    logs_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      r_.push_back(&mem.template make<Entry>(Entry{}, /*writer=*/p));
      logs_.push_back(std::make_unique<Log>());
    }
  }

  int num_procs() const { return n_; }
  double epsilon() const { return eps_; }

  // input(P, x): installs x as P's initial preference (round 1); subsequent
  // calls have no effect. One read + (first time) one write.
  Coro<void> input(Ctx ctx, double x) {
    const int p = ctx.pid();
    ctx.op_begin(obs::OpKind::kInput);
    const Entry mine = co_await ctx.read(*r_[static_cast<std::size_t>(p)]);
    if (mine.round == 0) {
      co_await ctx.write(*r_[static_cast<std::size_t>(p)], Entry{x, 1});
      log(p, 1, x);
    }
    ctx.op_end(obs::OpKind::kInput);
  }

  // output(P): the Figure 2 loop. P must have called input first (the paper
  // leaves output-before-any-input unspecified; we require the natural
  // discipline instead).
  Coro<double> output(Ctx ctx) {
    const int p = ctx.pid();
    bool advance = false;
    ctx.op_begin(obs::OpKind::kOutput);

    for (int round_iter = 0;; ++round_iter) {
      ctx.op_phase(obs::Phase::kRound, round_iter);
      // Scan r (n reads, fixed order — the paper allows any order).
      std::vector<Entry> entries;
      entries.reserve(static_cast<std::size_t>(n_));
      for (int q = 0; q < n_; ++q) {
        Entry e = co_await ctx.read(*r_[static_cast<std::size_t>(q)]);
        entries.push_back(e);
      }
      const Entry mine = entries[static_cast<std::size_t>(p)];
      APRAM_CHECK_MSG(mine.round >= 1, "output() requires a prior input()");

      std::int64_t max_round = 0;
      for (const Entry& e : entries) max_round = std::max(max_round, e.round);

      RealRange eligible;  // E: rounds within 1 of P's own
      RealRange leaders;   // L: rounds equal to the maximum
      for (const Entry& e : entries) {
        if (e.round == 0) continue;  // ⊥ entries are not in the array yet
        if (e.round >= mine.round - 1) eligible.extend(e.prefer);
        if (e.round == max_round) leaders.extend(e.prefer);
      }

      if (eligible.size() < eps_ / 2.0) {
        ctx.op_end(obs::OpKind::kOutput);
        co_return mine.prefer;
      } else if (leaders.size() < eps_ / 2.0 || advance) {
        co_await ctx.write(
            *r_[static_cast<std::size_t>(p)],
            Entry{leaders.midpoint(), mine.round + 1});
        log(p, mine.round + 1, leaders.midpoint());
        advance = false;
      } else {
        advance = true;
      }
    }
  }

  // Convenience: input followed by output.
  Coro<double> decide(Ctx ctx, double x) {
    co_await input(ctx, x);
    const double y = co_await output(ctx);
    co_return y;
  }

  // Test/bench introspection: P's current entry (no simulation step).
  // Simulator only: rt registers have no side-effect-free peek().
  Entry peek_entry(int pid) const {
    return r_[static_cast<std::size_t>(pid)]->peek();
  }

  // Every (pid, round, prefer) ever written — the X_r sets of Lemmas 1-3,
  // reconstructed from the execution itself. Each process's writes appear
  // in its write order; the processes are concatenated in pid order.
  // Call at quiescence.
  std::vector<WriteRecord> write_log() const {
    std::vector<WriteRecord> out;
    for (const auto& l : logs_) {
      out.insert(out.end(), l->records.begin(), l->records.end());
    }
    return out;
  }

 private:
  // P's write log, on its own cache lines (P is its only writer).
  struct alignas(64) Log {
    std::vector<WriteRecord> records;
  };

  void log(int p, std::int64_t round, double prefer) {
    logs_[static_cast<std::size_t>(p)]->records.push_back(
        WriteRecord{p, round, prefer});
  }

  int n_;
  double eps_;
  std::vector<typename B::template Reg<Entry>*> r_;
  std::vector<std::unique_ptr<Log>> logs_;
};

using ApproxAgreementSim = ApproxAgreement<api::SimBackend>;

namespace rt {

// Thread p may call only the p-indexed entry points.
class ApproxAgreementRT : public api::RtObject {
 public:
  ApproxAgreementRT(int num_procs, double epsilon)
      : RtObject(num_procs), impl_(mem_, num_procs, epsilon) {}

  void input(int p, double x) { impl_.input(api::RtBackend::Ctx{p}, x).get(); }
  double output(int p) { return impl_.output(api::RtBackend::Ctx{p}).get(); }
  double decide(int p, double x) {
    return impl_.decide(api::RtBackend::Ctx{p}, x).get();
  }

 private:
  ApproxAgreement<api::RtBackend> impl_;
};

}  // namespace rt

}  // namespace apram
