// Pseudo read-modify-write objects (Anderson & Grošelj, §2 related work).
//
// "Let F be a set of functions that commute with one another. A pseudo
// read-modify-write instruction is parameterized by a function f from F.
// When applied to a memory location holding a value v, it replaces the
// contents with f(v), but does not return a value."
//
// Because the functions commute and return nothing, apply(f)/apply(g)
// commute as operations, and everything overwrites read — so every PRMW
// object satisfies Property 1 and drops straight into the §5.4 universal
// construction. (Anderson & Grošelj build a bounded-register version; here
// we inherit this repo's unbounded-register realization.)
//
// A function family F provides:
//   using State;  using Fn;                     // Fn must be ==-comparable
//   static State initial();
//   static State apply_fn(const State&, const Fn&);
// with the *semantic contract* that apply_fn(apply_fn(s, f), g) ==
// apply_fn(apply_fn(s, g), f) for all f, g — property-checked in the tests.
#pragma once

#include <cstdint>
#include <utility>

#include "core/universal.hpp"

namespace apram {

template <class F>
struct PrmwSpec {
  enum class Kind : std::uint8_t { kApply, kRead };

  struct Invocation {
    Kind kind = Kind::kRead;
    typename F::Fn fn{};

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = typename F::State;
  using Response = State;  // read returns the value; apply returns initial()

  static State initial() { return F::initial(); }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    if (inv.kind == Kind::kApply) {
      return {F::apply_fn(s, inv.fn), F::initial()};
    }
    return {s, s};
  }

  static bool commutes(const Invocation& p, const Invocation& q) {
    if (p.kind == Kind::kApply && q.kind == Kind::kApply) return true;
    return p.kind == Kind::kRead && q.kind == Kind::kRead;
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return p.kind == Kind::kRead;  // everything overwrites a read
  }

  static Invocation apply_fn(typename F::Fn fn) {
    return {Kind::kApply, std::move(fn)};
  }
  static Invocation read() { return {Kind::kRead, {}}; }
};

// Wait-free PRMW object over family F, via the universal construction.
template <class F>
class PseudoRmwSim {
 public:
  using Spec = PrmwSpec<F>;

  PseudoRmwSim(sim::World& world, int num_procs,
               ScanMode mode = ScanMode::kOptimized)
      : u_(world, num_procs, mode) {}

  sim::SimCoro<void> apply(sim::Context ctx, typename F::Fn fn) {
    co_await u_.execute(ctx, Spec::apply_fn(std::move(fn)));
  }

  sim::SimCoro<typename F::State> read(sim::Context ctx) {
    typename F::State s = co_await u_.execute(ctx, Spec::read());
    co_return s;
  }

 private:
  UniversalObjectSim<Spec> u_;
};

// ---------------------------------------------------------------------------
// Ready-made commuting families
// ---------------------------------------------------------------------------

// Additive family: v -> v + a. (The counter without reset, as a PRMW.)
struct AddFamily {
  using State = std::int64_t;
  using Fn = std::int64_t;  // the addend
  static State initial() { return 0; }
  static State apply_fn(const State& s, const Fn& a) { return s + a; }
};

// Multiplicative family modulo a prime: v -> v * m (mod p). Commutes, is not
// representable as per-process sums — a PRMW that FastCounter-style
// contribution tricks cannot express, but the universal construction can.
struct ModMulFamily {
  static constexpr std::int64_t kModulus = 1'000'000'007;
  using State = std::int64_t;
  using Fn = std::int64_t;  // the multiplier
  static State initial() { return 1; }
  static State apply_fn(const State& s, const Fn& m) {
    return static_cast<State>((static_cast<__int128>(s) * m) % kModulus);
  }
};

// Bitwise-OR family: v -> v | mask (a grow-only bitset).
struct OrFamily {
  using State = std::uint64_t;
  using Fn = std::uint64_t;  // the mask
  static State initial() { return 0; }
  static State apply_fn(const State& s, const Fn& mask) { return s | mask; }
};

}  // namespace apram
