// Randomized wait-free consensus from atomic registers.
//
// §1/§2 context: deterministic consensus is impossible from reads and writes
// [23, 26] — which is exactly why Property 1 excludes consensus-strength
// objects — but "the asynchronous PRAM model is universal for randomized
// wait-free objects" [6]. This object demonstrates the claim with the
// classical commit-adopt + conciliator round structure, which keeps safety
// deterministic and pushes all randomness into liveness:
//
//   round r:
//     (verdict, v) := commit_adopt[r].propose(preference);
//     if verdict == commit  -> decide v;
//     preference := conciliator[r].refine(v);
//
// The conciliator is itself a shared object: post your preference, collect
// everyone's; if every posted preference you saw equals yours, KEEP it
// (never flip on agreement — this is what makes a commit in round r force a
// commit in round r+1: everyone left round r holding v, so nobody sees
// disagreement and nobody flips); only on observed disagreement re-draw
// uniformly among the values seen (all proposed, so validity is preserved
// for arbitrary inputs).
//
// Agreement and validity hold under EVERY schedule (commit-adopt coherence +
// the keep-on-agreement rule). Termination holds with probability 1 against
// an oblivious adversary: in each disagreeing round all coins land the same
// way with probability ≥ n^-n.
//
// Rounds consume pre-allocated instances; the pool size bounds only the
// demonstration (exceeding it aborts loudly), not the algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "objects/adopt_commit.hpp"
#include "util/rng.hpp"

namespace apram {

// One-shot conciliator: keep on unanimity, local-coin on disagreement.
class ConciliatorSim {
 public:
  ConciliatorSim(sim::World& world, int num_procs) : n_(num_procs) {
    for (int p = 0; p < n_; ++p) {
      c_.push_back(&world.make<Slot>(Slot{}, /*writer=*/p));
    }
  }

  sim::SimCoro<std::int64_t> refine(sim::Context ctx, std::int64_t pref,
                                    Rng& coin) {
    const int p = ctx.pid();
    co_await ctx.write(*c_[static_cast<std::size_t>(p)], Slot{true, pref});
    std::vector<std::int64_t> seen;
    bool disagreement = false;
    for (int q = 0; q < n_; ++q) {
      const Slot s = co_await ctx.read(*c_[static_cast<std::size_t>(q)]);
      if (!s.set) continue;
      seen.push_back(s.value);
      if (s.value != pref) disagreement = true;
    }
    if (disagreement) {
      // Re-draw uniformly among the posted (hence valid) values.
      co_return seen[coin.below(seen.size())];
    }
    co_return pref;
  }

 private:
  struct Slot {
    bool set = false;
    std::int64_t value = 0;
  };

  int n_;
  std::vector<sim::Register<Slot>*> c_;
};

class RandomizedConsensusSim {
 public:
  RandomizedConsensusSim(sim::World& world, int num_procs, int max_rounds = 64)
      : n_(num_procs) {
    rounds_.reserve(static_cast<std::size_t>(max_rounds));
    for (int r = 0; r < max_rounds; ++r) {
      rounds_.push_back(
          Round{std::make_unique<AdoptCommitSim>(world, num_procs),
                std::make_unique<ConciliatorSim>(world, num_procs)});
    }
  }

  int num_procs() const { return n_; }

  // Proposes `input`; returns the decided value. `coin_seed` seeds the
  // caller's local coin — use distinct seeds per process.
  sim::SimCoro<std::int64_t> propose(sim::Context ctx, std::int64_t input,
                                     std::uint64_t coin_seed) {
    Rng coin(coin_seed * 0x9e3779b97f4a7c15ULL +
             static_cast<std::uint64_t>(ctx.pid()) + 1);
    std::int64_t preference = input;

    for (auto& round : rounds_) {
      const CaResult res = co_await round.ca->propose(ctx, preference);
      if (res.verdict == CaVerdict::kCommit) {
        co_return res.value;
      }
      preference = co_await round.conciliator->refine(ctx, res.value, coin);
    }
    APRAM_CHECK_MSG(false, "consensus round pool exhausted (vanishingly "
                           "unlikely under an oblivious adversary)");
    co_return preference;
  }

 private:
  struct Round {
    std::unique_ptr<AdoptCommitSim> ca;
    std::unique_ptr<ConciliatorSim> conciliator;
  };

  int n_;
  std::vector<Round> rounds_;
};

}  // namespace apram
