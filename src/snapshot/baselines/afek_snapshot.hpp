// Baseline: the Afek–Attiya–Dolev–Gafni–Merritt–Shavit wait-free snapshot
// ("Atomic snapshots of shared memory", 1990 — reference [2] of the paper,
// described there as having "time complexity comparable to ours").
//
// Each slot register holds (value, seq, embedded view). update performs an
// embedded scan and writes it alongside the new value; scan repeatedly
// double-collects, and if some process is seen to move *twice*, borrows that
// process's embedded view — which is guaranteed to have been taken inside
// the scan's own window. Both operations are wait-free with O(n²) reads.
//
// One backend template; AfekSnapshotSim and rt::AfekSnapshotRT wrap it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"

namespace apram {

namespace snapshot {

template <class B, class T>
class AfekSnapshot {
 public:
  using View = std::vector<std::optional<T>>;
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  struct Slot {
    std::uint64_t seq = 0;  // 0 = never written
    T value{};
    View embedded;  // scan taken during the update that wrote this slot
  };

  AfekSnapshot(typename B::Mem& mem, int num_procs) : n_(num_procs) {
    for (int p = 0; p < n_; ++p) {
      slots_.push_back(&mem.template make<Slot>(Slot{}, /*writer=*/p));
    }
  }

  int num_procs() const { return n_; }

  // Wait-free scan: at most n+1 double collects (each retry pins a distinct
  // mover; after n+1 retries some process moved twice).
  Coro<View> scan(Ctx ctx) {
    std::vector<std::uint64_t> moved(static_cast<std::size_t>(n_), 0);
    std::vector<Slot> first(static_cast<std::size_t>(n_));
    std::vector<Slot> second(static_cast<std::size_t>(n_));
    for (;;) {
      for (int q = 0; q < n_; ++q) {
        Slot s = co_await ctx.read(*slots_[static_cast<std::size_t>(q)]);
        first[static_cast<std::size_t>(q)] = std::move(s);
      }
      for (int q = 0; q < n_; ++q) {
        Slot s = co_await ctx.read(*slots_[static_cast<std::size_t>(q)]);
        second[static_cast<std::size_t>(q)] = std::move(s);
      }
      bool clean = true;
      for (int q = 0; q < n_; ++q) {
        const auto uq = static_cast<std::size_t>(q);
        if (first[uq].seq != second[uq].seq) {
          clean = false;
          if (moved[uq] != 0 && moved[uq] != second[uq].seq) {
            // q moved twice during this scan: its latest embedded view was
            // taken entirely within our window — linearize there.
            co_return second[uq].embedded;
          }
          moved[uq] = second[uq].seq;
        }
      }
      if (clean) {
        View view(static_cast<std::size_t>(n_));
        for (int q = 0; q < n_; ++q) {
          const auto uq = static_cast<std::size_t>(q);
          if (second[uq].seq != 0) view[uq] = second[uq].value;
        }
        co_return view;
      }
    }
  }

  // update = embedded scan + one write (the "helping" that makes scans
  // borrowable).
  Coro<void> update(Ctx ctx, T v) {
    View embedded = co_await scan(ctx);
    const auto pid = static_cast<std::size_t>(ctx.pid());
    Slot current = co_await ctx.read(*slots_[pid]);
    Slot next;
    next.seq = current.seq + 1;
    next.value = std::move(v);
    next.embedded = std::move(embedded);
    co_await ctx.write(*slots_[pid], std::move(next));
  }

 private:
  int n_;
  std::vector<typename B::template Reg<Slot>*> slots_;
};

}  // namespace snapshot

template <class T>
using AfekSnapshotSim = snapshot::AfekSnapshot<api::SimBackend, T>;

namespace rt {

template <class T>
class AfekSnapshotRT : public api::RtObject {
 public:
  using View = typename snapshot::AfekSnapshot<api::RtBackend, T>::View;

  explicit AfekSnapshotRT(int num_procs)
      : RtObject(num_procs), impl_(mem_, num_procs) {}

  View scan(int p) { return impl_.scan(api::RtBackend::Ctx{p}).get(); }
  void update(int p, T v) {
    impl_.update(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

 private:
  snapshot::AfekSnapshot<api::RtBackend, T> impl_;
};

}  // namespace rt

}  // namespace apram
