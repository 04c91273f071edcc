// Commit-adopt (Gafni) — the wait-free agreement detector.
//
// A one-shot object: each process proposes a value and receives a verdict
// (kCommit, v) or (kAdopt, v) with the classic guarantees:
//
//   (CA1) validity    — the returned value was proposed by someone;
//   (CA2) coherence   — if any process returns (kCommit, v), every process
//                       returns verdict value v (commit or adopt);
//   (CA3) convergence — if all proposals equal v, everyone gets (kCommit, v).
//
// Construction (two collect phases over single-writer registers):
//
//   A[p] := v;           collect A;
//   B[p] := (v, strong = "A showed only v");   collect B;
//   if every strong entry seen carries v and I was strong -> (kCommit, v)
//   elif some strong entry carries v'                     -> (kAdopt, v')
//   else                                                  -> (kAdopt, my v)
//
// Commit-adopt is the safety half of randomized consensus: agreement comes
// from CA2 deterministically, and coins are only needed to make everyone
// propose the same value eventually (see objects/randomized_consensus.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/world.hpp"

namespace apram {

enum class CaVerdict : std::uint8_t { kCommit, kAdopt };

struct CaResult {
  CaVerdict verdict = CaVerdict::kAdopt;
  std::int64_t value = 0;
};

class AdoptCommitSim {
 public:
  AdoptCommitSim(sim::World& world, int num_procs) : n_(num_procs) {
    for (int p = 0; p < n_; ++p) {
      a_.push_back(&world.make<SlotA>(SlotA{}, /*writer=*/p));
      b_.push_back(&world.make<SlotB>(SlotB{}, /*writer=*/p));
    }
  }

  int num_procs() const { return n_; }

  // One-shot per process. Cost: 2 writes + 2n reads.
  sim::SimCoro<CaResult> propose(sim::Context ctx, std::int64_t v) {
    const int p = ctx.pid();

    co_await ctx.write(*a_[static_cast<std::size_t>(p)], SlotA{true, v});

    bool only_v = true;
    for (int q = 0; q < n_; ++q) {
      const SlotA s = co_await ctx.read(*a_[static_cast<std::size_t>(q)]);
      if (s.set && s.value != v) only_v = false;
    }

    co_await ctx.write(*b_[static_cast<std::size_t>(p)],
                       SlotB{true, v, only_v});

    bool saw_other_weak_or_conflicting = false;
    bool saw_strong = false;
    std::int64_t strong_value = v;
    for (int q = 0; q < n_; ++q) {
      const SlotB s = co_await ctx.read(*b_[static_cast<std::size_t>(q)]);
      if (!s.set) continue;
      if (s.strong) {
        saw_strong = true;
        strong_value = s.value;
      }
      if (!s.strong || s.value != v) saw_other_weak_or_conflicting = true;
    }

    if (only_v && !saw_other_weak_or_conflicting) {
      co_return CaResult{CaVerdict::kCommit, v};
    }
    if (saw_strong) {
      co_return CaResult{CaVerdict::kAdopt, strong_value};
    }
    co_return CaResult{CaVerdict::kAdopt, v};
  }

 private:
  struct SlotA {
    bool set = false;
    std::int64_t value = 0;
  };
  struct SlotB {
    bool set = false;
    std::int64_t value = 0;
    bool strong = false;
  };

  int n_;
  std::vector<sim::Register<SlotA>*> a_;
  std::vector<sim::Register<SlotB>*> b_;
};

}  // namespace apram
