// Wait-free shared counter (§5.1's flagship example), as a thin façade over
// the universal construction. inc/dec commute, reset overwrites everything,
// and every operation overwrites read — so CounterSpec satisfies Property 1
// and the Figure 4 construction applies directly.
#pragma once

#include "core/universal.hpp"
#include "objects/specs.hpp"

namespace apram {

class CounterSim {
 public:
  CounterSim(sim::World& world, int num_procs,
             ScanMode mode = ScanMode::kOptimized)
      : u_(world, num_procs, mode) {}

  sim::SimCoro<void> inc(sim::Context ctx, std::int64_t by = 1) {
    co_await u_.execute(ctx, CounterSpec::inc(by));
  }
  sim::SimCoro<void> dec(sim::Context ctx, std::int64_t by = 1) {
    co_await u_.execute(ctx, CounterSpec::dec(by));
  }
  sim::SimCoro<void> reset(sim::Context ctx, std::int64_t to = 0) {
    co_await u_.execute(ctx, CounterSpec::reset(to));
  }
  sim::SimCoro<std::int64_t> read(sim::Context ctx) {
    const std::int64_t r = co_await u_.execute(ctx, CounterSpec::read());
    co_return r;
  }

  UniversalObjectSim<CounterSpec>& universal() { return u_; }

 private:
  UniversalObjectSim<CounterSpec> u_;
};

}  // namespace apram
