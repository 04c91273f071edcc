// Sequential specification of the approximate agreement object (Figure 1).
//
// Abstract state: a set X of input values and a set Y of output values.
//   input(P, x):  X' = X ∪ {x}
//   output(P):    returns y with Y' = Y ∪ {y}, range(Y') ⊆ range(X),
//                 |range(Y')| < ε
//
// The spec object is used as a correctness oracle: concurrent executions of
// the Figure 2 algorithm feed their inputs and outputs into it, and the
// postconditions are checked exactly.
#pragma once

#include <optional>
#include <span>

namespace apram {

// A closed real interval, possibly empty. range(∅) = ∅ with |∅| = 0.
struct RealRange {
  bool empty = true;
  double lo = 0.0;
  double hi = 0.0;

  void extend(double x) {
    if (empty) {
      empty = false;
      lo = hi = x;
    } else {
      if (x < lo) lo = x;
      if (x > hi) hi = x;
    }
  }

  double size() const { return empty ? 0.0 : hi - lo; }
  double midpoint() const { return (lo + hi) / 2.0; }
  bool contains(double x) const { return !empty && lo <= x && x <= hi; }
  bool contains(const RealRange& other) const {
    return other.empty || (!empty && lo <= other.lo && other.hi <= hi);
  }
};

RealRange range_of(std::span<const double> values);

class ApproxAgreementSpec {
 public:
  explicit ApproxAgreementSpec(double epsilon);

  double epsilon() const { return epsilon_; }

  // input(P, x)
  void add_input(double x);

  // output(P) = y. Returns true iff y satisfies the Figure 1 postconditions
  // against the current state; when legal, y is added to Y.
  bool try_output(double y);

 private:
  double epsilon_;
  RealRange in_range_;
  RealRange out_range_;
};

}  // namespace apram
