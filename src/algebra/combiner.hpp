// Combiner — the algebraic requirement of an f-array (Obryk's
// Write-and-f-array; Jayanti's f-arrays): a monoid over the leaf type.
//
// A Semilattice (lattice/lattice.hpp) demands idempotence and an order;
// farray::FArray needs neither. The tree maintains f(x_0, …, x_{n-1}) for an
// arbitrary *associative* combine with a unit, so sums, products, max-suffix
// structures and full sequence merges all qualify — not just lattice joins.
//
// Laws (checked by tests/farray_test.cpp on concrete instances; not
// expressible in the concept):
//
//   combine(a, combine(b, c)) == combine(combine(a, b), c)   associativity
//   combine(identity(), a) == combine(a, identity()) == a    unit
//
// Commutativity is NOT required: the tree folds leaves strictly
// left-to-right (leaf p is the p-th operand), so order-sensitive combines —
// max-suffix sums, sequence concatenation — are fair game.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>

#include "lattice/lattice.hpp"

namespace apram {

// F combines values of type T: the form FArray<B, T, F> requires.
template <class F, class T>
concept CombinerFor = requires(T a, T b) {
  { F::identity() } -> std::convertible_to<T>;
  { F::combine(std::move(a), std::move(b)) } -> std::convertible_to<T>;
};

// Self-describing combiner (carries its value type), the shape of the
// instances below — parallel to Semilattice's `typename L::Value`.
template <class F>
concept Combiner =
    requires { typename F::Value; } && CombinerFor<F, typename F::Value>;

// --- instances -------------------------------------------------------------

// (T, +, 0) — the canonical non-lattice combine (not idempotent). An FArray
// over it is a wait-free "sum register": leaf p holds p's contribution, the
// root reads the global total in one access.
template <class T>
struct SumCombiner {
  using Value = T;
  static Value identity() { return T{}; }
  static Value combine(Value a, Value b) { return a + b; }
};

// Maximum suffix sum — associative but NOT commutative (swapping operands
// changes which side contributes the suffix), so it exercises the fold-order
// contract above. Value tracks the segment's total and its best suffix sum;
// identity is the empty segment.
struct MaxSuffixSumCombiner {
  struct Value {
    std::int64_t total = 0;
    std::int64_t best_suffix = 0;  // max over suffixes (including empty)

    friend bool operator==(const Value&, const Value&) = default;
  };

  static Value identity() { return {}; }
  static Value combine(Value a, Value b) {
    return Value{a.total + b.total,
                 std::max(b.best_suffix, b.total + a.best_suffix)};
  }
};

// Any join-semilattice is a combiner (join is associative, bottom is the
// unit) — the adapter snapshot::TreeScan rides FArray through.
template <Semilattice L>
struct JoinCombiner {
  using Value = typename L::Value;
  static Value identity() { return L::bottom(); }
  static Value combine(Value a, Value b) {
    return L::join(std::move(a), std::move(b));
  }
};

}  // namespace apram
