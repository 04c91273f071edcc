// Sequential specifications for the concrete data types of §5.1.
//
// Positive examples (satisfy Property 1, constructible):
//   CounterSpec     — inc/dec commute; reset overwrites everything;
//                     everything overwrites read. The paper's flagship
//                     example (shared counters, logical clocks [33],
//                     randomized consensus [6]).
//   GrowSetSpec     — insert-only set: inserts commute, membership/size
//                     queries are overwritten by everything.
//   MaxRegisterSpec — write-max register: writes commute (join semantics),
//                     reads are overwritten. The building block for Lamport
//                     logical clocks.
//
//   UnionFindSpec   — disjoint-set union with min-element representatives:
//                     unions commute (partition join), queries are
//                     overwritten by everything. Oracle for
//                     objects/union_find.hpp, whose min-wins linking makes
//                     find() deterministic enough to lincheck exactly.
//
// Negative examples (violate Property 1, hence *not* constructible from
// reads and writes — they solve two-process consensus [23, 26]):
//   StickyRegisterSpec — first write wins; two writes neither commute nor
//                        overwrite.
//   QueueSpec          — FIFO queue; enqueues neither commute nor overwrite.
//                        (Beyond Property 1's read/write scope, it IS
//                        implementable from CAS: objects/polylog_queue.hpp
//                        linchecks against this spec.)
//
// Lincheck oracle only (no algebra claims):
//   SnapshotSpec       — 3-slot single-writer snapshot: update(pid, v) fills
//                        slot pid, scan returns every slot (-1 = empty).
//
// The declared commutes/overwrites tables are validated against the
// semantic Definitions 10–11 by tests/algebra_test.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace apram {

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

struct CounterSpec {
  enum class Kind : std::uint8_t { kInc, kDec, kReset, kRead };

  struct Invocation {
    Kind kind = Kind::kRead;
    std::int64_t amount = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::int64_t;
  using Response = std::int64_t;  // read: the value; mutators: 0

  static State initial() { return 0; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    switch (inv.kind) {
      case Kind::kInc:
        return {s + inv.amount, 0};
      case Kind::kDec:
        return {s - inv.amount, 0};
      case Kind::kReset:
        return {inv.amount, 0};
      case Kind::kRead:
        return {s, s};
    }
    return {s, 0};
  }

  static bool commutes(const Invocation& p, const Invocation& q) {
    const bool p_delta = p.kind == Kind::kInc || p.kind == Kind::kDec;
    const bool q_delta = q.kind == Kind::kInc || q.kind == Kind::kDec;
    if (p_delta && q_delta) return true;                       // inc/dec pairs
    return p.kind == Kind::kRead && q.kind == Kind::kRead;     // read pairs
  }

  // overwrites(q, p): q destroys all evidence of p.
  static bool overwrites(const Invocation& q, const Invocation& p) {
    if (q.kind == Kind::kReset) return true;   // reset overwrites everything
    if (p.kind == Kind::kRead) return true;    // everything overwrites read
    return false;
  }

  // Convenience constructors.
  static Invocation inc(std::int64_t by = 1) { return {Kind::kInc, by}; }
  static Invocation dec(std::int64_t by = 1) { return {Kind::kDec, by}; }
  static Invocation reset(std::int64_t to = 0) { return {Kind::kReset, to}; }
  static Invocation read() { return {Kind::kRead, 0}; }
};

// ---------------------------------------------------------------------------
// Grow-only set over small integers
// ---------------------------------------------------------------------------

struct GrowSetSpec {
  enum class Kind : std::uint8_t { kInsert, kHas, kSize };

  struct Invocation {
    Kind kind = Kind::kSize;
    std::int64_t element = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::set<std::int64_t>;
  using Response = std::int64_t;  // has: 0/1; size: cardinality; insert: 0

  static State initial() { return {}; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    switch (inv.kind) {
      case Kind::kInsert: {
        State next = s;
        next.insert(inv.element);
        return {std::move(next), 0};
      }
      case Kind::kHas:
        return {s, s.count(inv.element) ? 1 : 0};
      case Kind::kSize:
        return {s, static_cast<Response>(s.size())};
    }
    return {s, 0};
  }

  static bool is_query(Kind k) { return k != Kind::kInsert; }

  static bool commutes(const Invocation& p, const Invocation& q) {
    if (p.kind == Kind::kInsert && q.kind == Kind::kInsert) return true;
    return is_query(p.kind) && is_query(q.kind);  // queries commute
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return is_query(p.kind);  // everything overwrites a query
  }

  static Invocation insert(std::int64_t x) { return {Kind::kInsert, x}; }
  static Invocation has(std::int64_t x) { return {Kind::kHas, x}; }
  static Invocation size() { return {Kind::kSize, 0}; }
};

// ---------------------------------------------------------------------------
// Max-register (write-max / read) — the logical-clock substrate
// ---------------------------------------------------------------------------

struct MaxRegisterSpec {
  enum class Kind : std::uint8_t { kWriteMax, kRead };

  struct Invocation {
    Kind kind = Kind::kRead;
    std::int64_t value = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::int64_t;
  using Response = std::int64_t;

  static State initial() { return 0; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    if (inv.kind == Kind::kWriteMax) {
      return {s > inv.value ? s : inv.value, 0};
    }
    return {s, s};
  }

  static bool commutes(const Invocation& p, const Invocation& q) {
    if (p.kind == Kind::kWriteMax && q.kind == Kind::kWriteMax) return true;
    return p.kind == Kind::kRead && q.kind == Kind::kRead;
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return p.kind == Kind::kRead;  // everything overwrites a read
  }

  static Invocation write_max(std::int64_t v) { return {Kind::kWriteMax, v}; }
  static Invocation read() { return {Kind::kRead, 0}; }
};

// ---------------------------------------------------------------------------
// Disjoint-set union over a fixed universe {0, …, U-1}
// ---------------------------------------------------------------------------
//
// Representatives are canonical: find(x) returns the MINIMUM element of x's
// set, matching objects/union_find.hpp's min-wins linking — so the
// concurrent object and this sequential oracle agree response-for-response.
//
// Deliberately NO num_sets invocation here: the object's num_sets is an
// overcount-free bound, not a linearizable query (its link-counter farray
// write trails the link CAS — see union_find.hpp), so it has no exact
// sequential semantics to check against.
template <int kUniverse = 8>
struct UnionFindSpec {
  enum class Kind : std::uint8_t { kUnion, kFind, kSameSet };

  struct Invocation {
    Kind kind = Kind::kFind;
    std::int32_t a = 0;
    std::int32_t b = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  // rep[i] = min element of i's set (so i is a representative iff
  // rep[i] == i). Lexicographic operator< for free via std::vector.
  using State = std::vector<std::int32_t>;
  using Response = std::int64_t;

  static State initial() {
    State s(static_cast<std::size_t>(kUniverse));
    std::iota(s.begin(), s.end(), 0);
    return s;
  }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    const auto rep = [&s](std::int32_t x) {
      return s[static_cast<std::size_t>(x)];
    };
    switch (inv.kind) {
      case Kind::kUnion: {
        const std::int32_t ra = rep(inv.a);
        const std::int32_t rb = rep(inv.b);
        if (ra == rb) return {s, 0};
        const std::int32_t lo = std::min(ra, rb);
        const std::int32_t hi = std::max(ra, rb);
        State next = s;
        for (std::int32_t& r : next) {
          if (r == hi) r = lo;
        }
        return {std::move(next), 0};
      }
      case Kind::kFind:
        return {s, rep(inv.a)};
      case Kind::kSameSet:
        return {s, rep(inv.a) == rep(inv.b) ? 1 : 0};
    }
    return {s, 0};
  }

  static bool is_query(Kind k) { return k != Kind::kUnion; }

  static bool commutes(const Invocation& p, const Invocation& q) {
    // Unions commute: merging is a join on the partition lattice.
    if (p.kind == Kind::kUnion && q.kind == Kind::kUnion) return true;
    return is_query(p.kind) && is_query(q.kind);
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return is_query(p.kind);  // everything overwrites a query
  }

  static Invocation unite(std::int32_t a, std::int32_t b) {
    return {Kind::kUnion, a, b};
  }
  static Invocation find(std::int32_t a) { return {Kind::kFind, a, 0}; }
  static Invocation same_set(std::int32_t a, std::int32_t b) {
    return {Kind::kSameSet, a, b};
  }
};

// ---------------------------------------------------------------------------
// Negative examples — these violate Property 1 and must be rejected.
// ---------------------------------------------------------------------------

// Write-once ("sticky") register: the first write wins. Solves consensus,
// so it cannot satisfy Property 1.
struct StickyRegisterSpec {
  enum class Kind : std::uint8_t { kWrite, kRead };

  struct Invocation {
    Kind kind = Kind::kRead;
    std::int64_t value = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  struct State {
    bool written = false;
    std::int64_t value = 0;

    friend bool operator==(const State&, const State&) = default;
  };
  using Response = std::int64_t;

  static State initial() { return {}; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    if (inv.kind == Kind::kWrite) {
      if (s.written) return {s, 0};
      return {State{true, inv.value}, 0};
    }
    return {s, s.written ? s.value : -1};
  }

  static bool commutes(const Invocation& p, const Invocation& q) {
    return p.kind == Kind::kRead && q.kind == Kind::kRead;
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return p.kind == Kind::kRead;
  }

  static Invocation write(std::int64_t v) { return {Kind::kWrite, v}; }
  static Invocation read() { return {Kind::kRead, 0}; }
};

// Bounded FIFO queue with totalized dequeue (returns -1 on empty).
struct QueueSpec {
  enum class Kind : std::uint8_t { kEnq, kDeq };

  struct Invocation {
    Kind kind = Kind::kDeq;
    std::int64_t value = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::deque<std::int64_t>;
  using Response = std::int64_t;

  static State initial() { return {}; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    State next = s;
    if (inv.kind == Kind::kEnq) {
      next.push_back(inv.value);
      return {std::move(next), 0};
    }
    if (next.empty()) return {std::move(next), -1};
    const Response front = next.front();
    next.pop_front();
    return {std::move(next), front};
  }

  static bool commutes(const Invocation&, const Invocation&) { return false; }
  static bool overwrites(const Invocation&, const Invocation&) {
    return false;
  }

  static Invocation enq(std::int64_t v) { return {Kind::kEnq, v}; }
  static Invocation deq() { return {Kind::kDeq, 0}; }
};

// Snapshot over 3 single-writer slots.
struct SnapshotSpec {
  static constexpr int kSlots = 3;
  enum class Kind : std::uint8_t { kUpdate, kScan };

  struct Invocation {
    Kind kind = Kind::kScan;
    int pid = 0;
    std::int64_t value = 0;
    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::vector<std::int64_t>;  // -1 = empty slot
  using Response = std::vector<std::int64_t>;

  static State initial() { return State(kSlots, -1); }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    if (inv.kind == Kind::kUpdate) {
      State next = s;
      next[static_cast<std::size_t>(inv.pid)] = inv.value;
      return {std::move(next), {}};
    }
    return {s, s};
  }

  // Unused by the checker but required by the SequentialSpec concept.
  static bool commutes(const Invocation&, const Invocation&) { return false; }
  static bool overwrites(const Invocation&, const Invocation&) {
    return false;
  }

  static Invocation update(int pid, std::int64_t v) {
    return {Kind::kUpdate, pid, v};
  }
  static Invocation scan() { return {Kind::kScan, 0, 0}; }
};

}  // namespace apram
