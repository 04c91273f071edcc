// Baseline: double-collect snapshot.
//
// The folklore algorithm the paper's snapshot improves on: a scan collects
// all n slots twice and retries until two consecutive collects are
// identical (comparing per-slot tags). Updates are a single tagged write.
//
// This is only *obstruction-free*: a scanner running alone finishes in 2n
// reads, but concurrent updaters can force it to retry forever — the
// starvation that wait-freedom (and E5's adversarial experiment) is about.
//
// One backend template; DoubleCollectSnapshotSim and
// rt::DoubleCollectSnapshotRT wrap it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"

namespace apram {

namespace snapshot {

template <class B, class T>
class DoubleCollectSnapshot {
 public:
  using View = std::vector<std::optional<T>>;
  using Ctx = typename B::Ctx;
  template <class U>
  using Coro = typename B::template Coro<U>;

  struct Slot {
    std::uint64_t tag = 0;  // 0 = never written
    T value{};
  };

  DoubleCollectSnapshot(typename B::Mem& mem, int num_procs) : n_(num_procs) {
    for (int p = 0; p < n_; ++p) {
      slots_.push_back(&mem.template make<Slot>(Slot{}, /*writer=*/p));
      tags_.push_back(std::make_unique<Tag>());
    }
  }

  int num_procs() const { return n_; }

  // One shared write.
  Coro<void> update(Ctx ctx, T v) {
    const auto pid = static_cast<std::size_t>(ctx.pid());
    Slot next{++tags_[pid]->value, std::move(v)};
    co_await ctx.write(*slots_[pid], std::move(next));
  }

  // Retries until a clean double collect; `max_attempts` bounds the retries
  // (0 = unbounded). Returns nullopt if the bound is exhausted — the
  // behaviour wait-free algorithms never exhibit.
  Coro<std::optional<View>> scan(Ctx ctx, int max_attempts = 0) {
    std::vector<Slot> first(static_cast<std::size_t>(n_));
    std::vector<Slot> second(static_cast<std::size_t>(n_));
    for (int attempt = 0; max_attempts == 0 || attempt < max_attempts;
         ++attempt) {
      for (int q = 0; q < n_; ++q) {
        Slot s = co_await ctx.read(*slots_[static_cast<std::size_t>(q)]);
        first[static_cast<std::size_t>(q)] = std::move(s);
      }
      for (int q = 0; q < n_; ++q) {
        Slot s = co_await ctx.read(*slots_[static_cast<std::size_t>(q)]);
        second[static_cast<std::size_t>(q)] = std::move(s);
      }
      bool clean = true;
      for (int q = 0; q < n_ && clean; ++q) {
        clean = first[static_cast<std::size_t>(q)].tag ==
                second[static_cast<std::size_t>(q)].tag;
      }
      if (clean) {
        View view(static_cast<std::size_t>(n_));
        for (int q = 0; q < n_; ++q) {
          const Slot& s = second[static_cast<std::size_t>(q)];
          if (s.tag != 0) view[static_cast<std::size_t>(q)] = s.value;
        }
        co_return view;
      }
    }
    co_return std::nullopt;
  }

 private:
  // P's tag counter, on its own cache lines (P is its only writer).
  struct alignas(64) Tag {
    std::uint64_t value = 0;
  };

  int n_;
  std::vector<typename B::template Reg<Slot>*> slots_;
  std::vector<std::unique_ptr<Tag>> tags_;
};

}  // namespace snapshot

template <class T>
using DoubleCollectSnapshotSim =
    snapshot::DoubleCollectSnapshot<api::SimBackend, T>;

namespace rt {

template <class T>
class DoubleCollectSnapshotRT : public api::RtObject {
 public:
  using View =
      typename snapshot::DoubleCollectSnapshot<api::RtBackend, T>::View;

  explicit DoubleCollectSnapshotRT(int num_procs)
      : RtObject(num_procs), impl_(mem_, num_procs) {}

  void update(int p, T v) {
    impl_.update(api::RtBackend::Ctx{p}, std::move(v)).get();
  }
  // Retries until a clean double collect (unbounded). `attempts_out`, when
  // provided, reports how many collect pairs were needed — the quantity
  // that distinguishes this baseline from the wait-free scan.
  View scan(int p, std::uint64_t* attempts_out = nullptr) {
    for (std::uint64_t attempts = 1;; ++attempts) {
      std::optional<View> view =
          impl_.scan(api::RtBackend::Ctx{p}, /*max_attempts=*/1).get();
      if (view.has_value()) {
        if (attempts_out != nullptr) *attempts_out = attempts;
        return std::move(*view);
      }
    }
  }

 private:
  snapshot::DoubleCollectSnapshot<api::RtBackend, T> impl_;
};

}  // namespace rt

}  // namespace apram
