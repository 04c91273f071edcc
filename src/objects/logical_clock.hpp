// Lamport logical clock [33] built on a wait-free max-register.
//
// The max-register (write-max / read) satisfies Property 1: write-max
// operations commute (join semantics, void responses) and everything
// overwrites read. A Lamport clock is then:
//
//   now()        — read the clock.
//   tick()       — advance past the current reading for a local event;
//                  returns the event's timestamp.
//   observe(t)   — merge a timestamp received in a message: advance the
//                  clock past max(now, t).
//
// Timestamps are made globally unique by pairing with the process id
// (standard Lamport tie-breaking); stamp() returns such a pair.
#pragma once

#include <cstdint>
#include <utility>

#include "core/universal.hpp"
#include "objects/specs.hpp"

namespace apram {

class LamportClockSim {
 public:
  // A globally unique, totally ordered timestamp.
  struct Stamp {
    std::int64_t time = 0;
    int pid = -1;

    friend auto operator<=>(const Stamp&, const Stamp&) = default;
  };

  LamportClockSim(sim::World& world, int num_procs,
                  ScanMode mode = ScanMode::kOptimized)
      : u_(world, num_procs, mode) {}

  sim::SimCoro<std::int64_t> now(sim::Context ctx) {
    const std::int64_t r = co_await u_.execute(ctx, MaxRegisterSpec::read());
    co_return r;
  }

  // Local event: returns a reading strictly greater than any value read
  // from the clock before this call by this process.
  sim::SimCoro<std::int64_t> tick(sim::Context ctx) {
    const std::int64_t seen =
        co_await u_.execute(ctx, MaxRegisterSpec::read());
    const std::int64_t stamp = seen + 1;
    co_await u_.execute(ctx, MaxRegisterSpec::write_max(stamp));
    co_return stamp;
  }

  // Message receipt carrying timestamp t: clock advances past both the
  // local reading and t.
  sim::SimCoro<std::int64_t> observe(sim::Context ctx, std::int64_t t) {
    const std::int64_t seen =
        co_await u_.execute(ctx, MaxRegisterSpec::read());
    const std::int64_t stamp = (seen > t ? seen : t) + 1;
    co_await u_.execute(ctx, MaxRegisterSpec::write_max(stamp));
    co_return stamp;
  }

  sim::SimCoro<Stamp> stamp(sim::Context ctx) {
    const std::int64_t t = co_await tick(ctx);
    co_return Stamp{t, ctx.pid()};
  }

 private:
  UniversalObjectSim<MaxRegisterSpec> u_;
};

}  // namespace apram
