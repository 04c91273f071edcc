// Wait-free grow-only set ("certain kinds of set abstractions", §5.1) via
// the universal construction: inserts commute, queries are overwritten.
#pragma once

#include "core/universal.hpp"
#include "objects/specs.hpp"

namespace apram {

class GrowSetSim {
 public:
  GrowSetSim(sim::World& world, int num_procs,
             ScanMode mode = ScanMode::kOptimized)
      : u_(world, num_procs, mode) {}

  sim::SimCoro<void> insert(sim::Context ctx, std::int64_t x) {
    co_await u_.execute(ctx, GrowSetSpec::insert(x));
  }
  sim::SimCoro<bool> has(sim::Context ctx, std::int64_t x) {
    const std::int64_t r = co_await u_.execute(ctx, GrowSetSpec::has(x));
    co_return r != 0;
  }
  sim::SimCoro<std::int64_t> size(sim::Context ctx) {
    const std::int64_t r = co_await u_.execute(ctx, GrowSetSpec::size());
    co_return r;
  }

 private:
  UniversalObjectSim<GrowSetSpec> u_;
};

}  // namespace apram
