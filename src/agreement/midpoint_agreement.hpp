// Two-process convergent approximate agreement (the lower-bound testbed).
//
// Lemma 6's adversary argument applies to *correct* implementations: it
// derives ⌊log3(Δ/ε)⌋ forced steps from the fact that two processes cannot
// both return while their preferences (solo-run outcomes) are more than ε
// apart. Reproducing the paper surfaced that the literal Figure 2 algorithm
// does not satisfy that premise when an input write is delayed past another
// process's decision (see DESIGN.md, "Late-input boundary"), and that in the
// all-inputs-installed regime it converges in O(1) rounds — so the game
// cannot be demonstrated against it.
//
// This object is the classic midpoint-convergence algorithm, correct for two
// processes in the full asynchronous regime (late inputs included):
//
//   output(P): loop
//     read both entries;
//     if the rival's entry is absent        -> return own preference;
//     if |own - rival| < ε/2                -> return own preference;
//     else                                  -> write (own + rival)/2; repeat.
//
// Why it is correct: a process returns only when it is within ε/2 of the
// rival's *current* entry (or the rival never showed up, in which case the
// rival — when it arrives — converges to the returner's frozen entry). After
// P returns p, Q's subsequent writes are midpoints of {q, p}, which only
// move Q toward p; Q returns once within ε/2 of p. Against this object the
// Lemma 6 preference game is live: a solo run converges to (near) the
// rival's frozen value, so the initial preference gap is Δ and the adversary
// can hold the shrink to 3× per iteration.
#pragma once

#include <cmath>
#include <vector>

#include "agreement/approx_spec.hpp"
#include "sim/world.hpp"

namespace apram {

class MidpointAgreementSim {
 public:
  struct Entry {
    double prefer = 0.0;
    bool present = false;
  };

  MidpointAgreementSim(sim::World& world, int num_procs, double epsilon)
      : n_(num_procs), eps_(epsilon) {
    APRAM_CHECK_MSG(num_procs == 2,
                    "midpoint agreement is the two-process testbed");
    APRAM_CHECK(epsilon > 0.0);
    for (int p = 0; p < n_; ++p) {
      r_.push_back(&world.make<Entry>(Entry{}, /*writer=*/p));
    }
  }

  int num_procs() const { return n_; }
  double epsilon() const { return eps_; }

  sim::SimCoro<void> input(sim::Context ctx, double x) {
    const int p = ctx.pid();
    const Entry mine = co_await ctx.read(*r_[static_cast<std::size_t>(p)]);
    if (!mine.present) {
      co_await ctx.write(*r_[static_cast<std::size_t>(p)], Entry{x, true});
    }
  }

  sim::SimCoro<double> output(sim::Context ctx) {
    const int p = ctx.pid();
    const int q = 1 - p;
    for (;;) {
      const Entry mine = co_await ctx.read(*r_[static_cast<std::size_t>(p)]);
      APRAM_CHECK_MSG(mine.present, "output() requires a prior input()");
      const Entry rival = co_await ctx.read(*r_[static_cast<std::size_t>(q)]);
      if (!rival.present || std::fabs(mine.prefer - rival.prefer) < eps_ / 2.0) {
        co_return mine.prefer;
      }
      co_await ctx.write(*r_[static_cast<std::size_t>(p)],
                         Entry{(mine.prefer + rival.prefer) / 2.0, true});
    }
  }

  sim::SimCoro<double> decide(sim::Context ctx, double x) {
    co_await input(ctx, x);
    const double y = co_await output(ctx);
    co_return y;
  }

  Entry peek_entry(int pid) const {
    return r_[static_cast<std::size_t>(pid)]->peek();
  }

 private:
  int n_;
  double eps_;
  std::vector<sim::Register<Entry>*> r_;
};

}  // namespace apram
