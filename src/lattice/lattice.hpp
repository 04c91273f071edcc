// ∨-semilattices.
//
// Section 6 of Aspnes & Herlihy casts the atomic snapshot problem in terms
// of a join-semilattice L with a bottom element: the shared array's state is
// the join of all values ever written, and a Scan returns that join. This
// header defines the Semilattice concept used by the scan algorithm plus the
// instances the paper needs:
//
//   MaxLattice<T>          — totally ordered values under max
//   SetUnionLattice<T>     — finite sets under union
//   TaggedCell / TaggedVectorLattice — the instance from the end of §6: an
//       n-element array of tagged cells, join = element-wise max-by-tag.
//       This is what turns the lattice Scan into an atomic snapshot object.
//   PairLattice<A, B>      — product lattice (component-wise join)
//
// All lattices here are stateless types with static members so algorithm
// templates pay no storage or indirection for them. join(a, b) takes `a` by
// value and joins `b` into it in place, so a fold written
// `acc = L::join(std::move(acc), x)` updates acc instead of building a new
// value per step.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace apram {

// A join-semilattice with bottom. Laws (checked by tests/lattice_test):
//   join is associative, commutative, idempotent
//   join(bottom(), x) == x
//   leq(a, b) <=> join(a, b) == b
// Lattices also expose eq(a, b), the equality the laws are stated over. For
// most instances it is plain ==; for TaggedVectorLattice it is mutual leq,
// because vectors differing only in trailing/⊥ cells denote the same lattice
// element (the lattice is a quotient of the representation).
template <class L>
concept Semilattice = requires(const typename L::Value& a,
                               const typename L::Value& b) {
  typename L::Value;
  { L::bottom() } -> std::same_as<typename L::Value>;
  { L::join(a, b) } -> std::same_as<typename L::Value>;
  { L::leq(a, b) } -> std::same_as<bool>;
  { L::eq(a, b) } -> std::same_as<bool>;
};

// --------------------------------------------------------------------------

template <class T>
struct MaxLattice {
  using Value = T;
  static Value bottom() { return std::numeric_limits<T>::lowest(); }
  static Value join(Value a, const Value& b) {
    if (a < b) a = b;
    return a;
  }
  static bool leq(const Value& a, const Value& b) { return a <= b; }
  static bool eq(const Value& a, const Value& b) { return a == b; }
};

template <class T>
struct SetUnionLattice {
  using Value = std::set<T>;
  static Value bottom() { return {}; }
  static Value join(Value a, const Value& b) {
    a.insert(b.begin(), b.end());
    return a;
  }
  static bool leq(const Value& a, const Value& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  }
  static bool eq(const Value& a, const Value& b) { return a == b; }
};

// --------------------------------------------------------------------------
// Tagged cells and vectors: the snapshot instance.
//
// Each process P owns cell P of the vector. A write by P bumps P's tag; the
// join of two vectors keeps, per cell, the value with the larger tag. Tag 0
// is the ⊥ cell ("no write yet"). Tags are unbounded, exactly as in the
// paper ("the most straightforward implementation of our scan algorithm
// uses unbounded counters").

template <class T>
struct TaggedCell {
  std::uint64_t tag = 0;
  T value{};

  friend bool operator==(const TaggedCell& a, const TaggedCell& b) {
    return a.tag == b.tag && (a.tag == 0 || a.value == b.value);
  }
};

template <class T>
struct TaggedVectorLattice {
  using Cell = TaggedCell<T>;
  using Value = std::vector<Cell>;

  // The empty vector acts as ⊥ of any width; join widens as needed so the
  // lattice laws hold for mixed widths.
  static Value bottom() { return {}; }

  static Value join(Value a, const Value& b) {
    if (a.size() < b.size()) a.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (b[i].tag > a[i].tag) a[i] = b[i];
    }
    return a;
  }

  static bool leq(const Value& a, const Value& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].tag == 0) continue;
      if (i >= b.size() || a[i].tag > b[i].tag) return false;
    }
    return true;
  }

  static bool eq(const Value& a, const Value& b) {
    return leq(a, b) && leq(b, a);
  }

  // Convenience: a vector that is ⊥ except for cell `pid`.
  static Value singleton(std::size_t n, std::size_t pid, std::uint64_t tag,
                         T value) {
    APRAM_CHECK(pid < n);
    Value out(n);
    out[pid] = Cell{tag, std::move(value)};
    return out;
  }

  // The snapshot view of `joined`: one slot per process, nullopt where the
  // cell is ⊥ (tag 0). Cells past `n` are ignored.
  static std::vector<std::optional<T>> unpack(const Value& joined,
                                              std::size_t n) {
    std::vector<std::optional<T>> view(n);
    for (std::size_t i = 0; i < joined.size() && i < n; ++i) {
      if (joined[i].tag != 0) view[i] = joined[i].value;
    }
    return view;
  }
};

// --------------------------------------------------------------------------
// Vector clocks: per-process event counters under component-wise max. The
// lattice order is exactly the happened-before partial order on cuts, which
// makes this the natural payload for causality tracking on top of the scan.

struct VectorClockLattice {
  using Value = std::vector<std::uint64_t>;

  static Value bottom() { return {}; }

  static Value join(Value a, const Value& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) a[i] = std::max(a[i], b[i]);
    return a;
  }

  static bool leq(const Value& a, const Value& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == 0) continue;
      if (i >= b.size() || a[i] > b[i]) return false;
    }
    return true;
  }

  static bool eq(const Value& a, const Value& b) {
    return leq(a, b) && leq(b, a);
  }

  // The clock with component `pid` set to `count`.
  static Value tick(std::size_t n, std::size_t pid, std::uint64_t count) {
    Value v(n, 0);
    v[pid] = count;
    return v;
  }
};

// --------------------------------------------------------------------------

template <class A, class B>
struct PairLattice {
  using Value = std::pair<typename A::Value, typename B::Value>;
  static Value bottom() { return {A::bottom(), B::bottom()}; }
  static Value join(Value a, const Value& b) {
    a.first = A::join(std::move(a.first), b.first);
    a.second = B::join(std::move(a.second), b.second);
    return a;
  }
  static bool leq(const Value& a, const Value& b) {
    return A::leq(a.first, b.first) && B::leq(a.second, b.second);
  }
  static bool eq(const Value& a, const Value& b) {
    return A::eq(a.first, b.first) && B::eq(a.second, b.second);
  }
};

static_assert(Semilattice<MaxLattice<std::int64_t>>);
static_assert(Semilattice<SetUnionLattice<int>>);
static_assert(Semilattice<TaggedVectorLattice<int>>);
static_assert(Semilattice<VectorClockLattice>);
static_assert(Semilattice<PairLattice<MaxLattice<int>, SetUnionLattice<int>>>);

}  // namespace apram
