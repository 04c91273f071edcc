// Lattice agreement (§2; Attiya, Herlihy & Rachman [8]).
//
// The one-shot lattice agreement task: each process proposes a lattice value
// x_i and must learn a value y_i such that
//
//   (LA1)  x_i ≤ y_i                      (own proposal included)
//   (LA2)  y_i ≤ ⋁_j x_j                  (nothing invented)
//   (LA3)  all learned values are pairwise comparable (a chain)
//
// The paper's §2 notes that this task is "closely related to the semilattice
// construction we use in Section 6": the Figure 5 Scan *solves* lattice
// agreement directly — Scan(P, x) returns a join that includes x (LA1), is a
// join of proposals only (LA2), and is comparable to every other Scan return
// by Lemma 32 (LA3). This adapter packages that as the task API; the reverse
// direction (fast snapshots *from* lattice agreement, Attiya–Rachman's
// O(n log n)) is how the field later beat the O(n²) scan.
#pragma once

#include "snapshot/lattice_scan.hpp"

namespace apram {

template <Semilattice L>
class LatticeAgreementSim {
 public:
  using Value = typename L::Value;

  LatticeAgreementSim(sim::World& world, int num_procs,
                      ScanMode mode = ScanMode::kOptimized)
      : scan_(world, num_procs, mode) {}

  int num_procs() const { return scan_.num_procs(); }

  // One-shot per process: propose x, learn a chain value covering it.
  // (Repeated calls are harmless — they behave like proposing again and
  // learn a larger value — but the task is specified one-shot.)
  sim::SimCoro<Value> propose(sim::Context ctx, Value x) {
    Value learned = co_await scan_.scan(ctx, std::move(x));
    co_return learned;
  }

 private:
  LatticeScanSim<L> scan_;
};

}  // namespace apram
