// Type-optimized wait-free counter (the §5.4 closing remark: "for any
// particular data type, it should be possible to apply type-specific
// optimizations to discard most of the precedence graph").
//
// For a counter without reset, the entire precedence graph collapses to one
// running total per process: inc/dec(amount) adds to the caller's published
// contribution (a single snapshot-object update — one shared write), and
// read() takes one snapshot scan and sums the contributions. Linearizable
// because the underlying snapshot is atomic and contributions are
// per-process monotone histories.
//
// Cost per op: update O(1), read O(n²) — versus the generic construction's
// O(n²) for *every* operation plus graph maintenance. Bench E8 quantifies
// the gap.
//
// One backend template; FastCounterSim and rt::FastCounterRT wrap it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "snapshot/atomic_snapshot.hpp"

namespace apram {

template <class B>
class FastCounter {
 public:
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  FastCounter(typename B::Mem& mem, int num_procs,
              ScanMode mode = ScanMode::kOptimized)
      : snap_(mem, num_procs, mode) {
    contribution_.reserve(static_cast<std::size_t>(num_procs));
    for (int p = 0; p < num_procs; ++p) {
      contribution_.push_back(std::make_unique<Cell>());
    }
  }

  Coro<void> inc(Ctx ctx, std::int64_t by = 1) { return add(ctx, by); }
  Coro<void> dec(Ctx ctx, std::int64_t by = 1) { return add(ctx, -by); }

  Coro<std::int64_t> read(Ctx ctx) {
    SnapshotView<std::int64_t> view = co_await snap_.scan(ctx);
    std::int64_t sum = 0;
    for (const auto& c : view) {
      if (c.has_value()) sum += *c;
    }
    co_return sum;
  }

 private:
  // P's running total, on its own cache lines; only P touches it, and the
  // authoritative copy lives in the snapshot object.
  struct alignas(64) Cell {
    std::int64_t value = 0;
  };

  Coro<void> add(Ctx ctx, std::int64_t delta) {
    std::int64_t& mine =
        contribution_[static_cast<std::size_t>(ctx.pid())]->value;
    mine += delta;
    co_await snap_.update(ctx, mine);
  }

  snapshot::AtomicSnapshot<B, std::int64_t> snap_;
  std::vector<std::unique_ptr<Cell>> contribution_;
};

using FastCounterSim = FastCounter<api::SimBackend>;

namespace rt {

class FastCounterRT : public api::RtObject {
 public:
  explicit FastCounterRT(int num_procs, ScanMode mode = ScanMode::kOptimized)
      : RtObject(num_procs), impl_(mem_, num_procs, mode) {}

  void inc(int p, std::int64_t by = 1) {
    impl_.inc(api::RtBackend::Ctx{p}, by).get();
  }
  void dec(int p, std::int64_t by = 1) {
    impl_.dec(api::RtBackend::Ctx{p}, by).get();
  }
  std::int64_t read(int p) { return impl_.read(api::RtBackend::Ctx{p}).get(); }

 private:
  FastCounter<api::RtBackend> impl_;
};

}  // namespace rt

}  // namespace apram
