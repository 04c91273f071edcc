// apram::universal2 — real-thread convenience wrappers.
//
// Same shape as every rt wrapper (see api::RtObject): each owns an
// api::RtBackend::Mem plus the backend-templated object and exposes the
// int-pid call style (thread p may call only the p-indexed entry points).
#pragma once

#include <cstdint>

#include "api/rt_backend.hpp"
#include "core/universal.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/linked_list.hpp"

namespace apram::universal2 {

// Wait-free counter (normalized fast/slow path) on real threads.
class Counter2RT : public api::RtObject {
 public:
  using Config = Counter2<api::RtBackend>::Config;

  explicit Counter2RT(int num_procs, Config cfg = {})
      : RtObject(num_procs), counter_(mem_, num_procs, cfg) {}

  std::int64_t inc(int p, std::int64_t by = 1) {
    return counter_.inc(api::RtBackend::Ctx{p}, by).get();
  }
  std::int64_t dec(int p, std::int64_t by = 1) {
    return counter_.dec(api::RtBackend::Ctx{p}, by).get();
  }
  std::int64_t reset(int p, std::int64_t to = 0) {
    return counter_.reset(api::RtBackend::Ctx{p}, to).get();
  }
  std::int64_t read(int p) {
    return counter_.read(api::RtBackend::Ctx{p}).get();
  }

  std::uint64_t slow_path_entries(int p) const {
    return counter_.sim().slow_path_entries(p);
  }

 private:
  Counter2<api::RtBackend> counter_;
};

// Wait-free sorted linked-list set on real threads.
class SortedSetRT : public api::RtObject {
 public:
  using Config = SortedSet<api::RtBackend>::Config;

  SortedSetRT(int num_procs, int capacity_per_proc, Config cfg = {})
      : RtObject(num_procs), set_(mem_, num_procs, capacity_per_proc, cfg) {}

  std::int64_t insert(int p, std::int64_t key) {
    return set_.insert(api::RtBackend::Ctx{p}, key).get();
  }
  std::int64_t remove(int p, std::int64_t key) {
    return set_.remove(api::RtBackend::Ctx{p}, key).get();
  }
  std::int64_t contains(int p, std::int64_t key) {
    return set_.contains(api::RtBackend::Ctx{p}, key).get();
  }

  // Quiescent membership walk (call after joins / outside the run).
  std::vector<std::int64_t> snapshot_keys(int p) {
    return set_.rep().snapshot_keys(api::RtBackend::Ctx{p}).get();
  }

  std::uint64_t slow_path_entries(int p) const {
    return set_.sim().slow_path_entries(p);
  }

 private:
  SortedSet<api::RtBackend> set_;
};

// The paper's universal construction on real threads (bench baseline).
template <SequentialSpec S>
class PaperUniversalRT : public api::RtObject {
 public:
  explicit PaperUniversalRT(int num_procs,
                            ScanMode mode = ScanMode::kOptimized)
      : RtObject(num_procs), obj_(mem_, num_procs, mode) {}

  typename S::Response execute(int p, typename S::Invocation inv) {
    return obj_.execute(api::RtBackend::Ctx{p}, std::move(inv)).get();
  }

 private:
  PaperUniversal<api::RtBackend, S> obj_;
};

}  // namespace apram::universal2
