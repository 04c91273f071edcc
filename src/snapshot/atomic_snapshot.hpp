// Atomic snapshot object (end of Section 6).
//
// The snapshot object gives each of n processes a slot; update(P, v) writes
// P's slot and scan() returns an instantaneous view of all n slots. It is
// the lattice Scan instantiated at TaggedVectorLattice: each value is an
// n-element array of tagged cells, the join is the element-wise max-by-tag,
// and ⊥ is the all-tags-zero array.
//
//  * update(P, v): bump P's tag and post the singleton array — one shared
//    write ("P writes the P-th position in the anchor array by initializing
//    scan[P][0] to an array whose P-th element has a higher tag...").
//  * scan(): ReadMax — a full Figure 5 Scan with the ⊥ contribution,
//    returning one cell per process (nullopt where no update has occurred).
//
// Scans are pairwise comparable (Lemma 32), which is what makes the returned
// views linearizable as instantaneous snapshots (Theorem 33).
//
// One backend template; AtomicSnapshotSim and rt::AtomicSnapshotRT wrap it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "lattice/lattice.hpp"
#include "snapshot/lattice_scan.hpp"

namespace apram {

// A scan result: one optional value per process slot.
template <class T>
using SnapshotView = std::vector<std::optional<T>>;

namespace snapshot {

template <class B, class T>
class AtomicSnapshot {
 public:
  using Lattice = TaggedVectorLattice<T>;
  using LatticeValue = typename Lattice::Value;
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  AtomicSnapshot(typename B::Mem& mem, int num_procs,
                 ScanMode mode = ScanMode::kOptimized)
      : n_(num_procs), scan_(mem, num_procs, mode) {
    tags_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) tags_.push_back(std::make_unique<Tag>());
  }

  int num_procs() const { return n_; }

  // Installs `v` as P's current value. One shared-memory write.
  Coro<void> update(Ctx ctx, T v) {
    LatticeValue mine = next_singleton(ctx.pid(), std::move(v));
    co_await scan_.post(ctx, std::move(mine));
  }

  // Returns an instantaneous view of all slots.
  Coro<SnapshotView<T>> scan(Ctx ctx) {
    LatticeValue joined = co_await scan_.read_max(ctx);
    co_return Lattice::unpack(joined, static_cast<std::size_t>(n_));
  }

  // Scan(P, v) proper: install `v` and return a view that includes it.
  // Costs the same as scan() (the update rides along for free).
  Coro<SnapshotView<T>> update_and_scan(Ctx ctx, T v) {
    LatticeValue mine = next_singleton(ctx.pid(), std::move(v));
    LatticeValue joined = co_await scan_.scan(ctx, std::move(mine));
    co_return Lattice::unpack(joined, static_cast<std::size_t>(n_));
  }

  // The raw lattice view (tags included) — used by tests checking Lemma 32
  // comparability.
  Coro<LatticeValue> scan_tagged(Ctx ctx) {
    LatticeValue joined = co_await scan_.read_max(ctx);
    co_return joined;
  }

  const LatticeScan<B, Lattice>& lattice_scan() const { return scan_; }

 private:
  // P's tag counter, on its own cache lines (P is its only writer).
  struct alignas(64) Tag {
    std::uint64_t value = 0;
  };

  // The singleton array carrying `v` under P's next tag.
  LatticeValue next_singleton(int p, T v) {
    const std::uint64_t tag = ++tags_[static_cast<std::size_t>(p)]->value;
    return Lattice::singleton(static_cast<std::size_t>(n_),
                              static_cast<std::size_t>(p), tag, std::move(v));
  }

  int n_;
  LatticeScan<B, Lattice> scan_;
  std::vector<std::unique_ptr<Tag>> tags_;
};

}  // namespace snapshot

template <class T>
using AtomicSnapshotSim = snapshot::AtomicSnapshot<api::SimBackend, T>;

namespace rt {

template <class T>
class AtomicSnapshotRT : public api::RtObject {
 public:
  explicit AtomicSnapshotRT(int num_procs,
                            ScanMode mode = ScanMode::kOptimized)
      : RtObject(num_procs), impl_(mem_, num_procs, mode) {}

  void update(int p, T v) {
    impl_.update(api::RtBackend::Ctx{p}, std::move(v)).get();
  }
  SnapshotView<T> scan(int p) {
    return impl_.scan(api::RtBackend::Ctx{p}).get();
  }

 private:
  snapshot::AtomicSnapshot<api::RtBackend, T> impl_;
};

}  // namespace rt

}  // namespace apram
