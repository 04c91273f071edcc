// apram::obs — always-on per-node contention telemetry.
//
// The paper's cost story is a helping story: a solo farray write costs
// 1 + 4h accesses, a contended one ≤ 1 + 8h, and the difference is exactly
// how often an internal-node CAS loses and forces the second refresh. This
// header records that difference where it happens — one cell per FArray
// tree node, counting CAS attempts/failures and first-refresh /
// second-refresh / helped outcomes — cheap enough to stay on at 64
// threads:
//
//   * One NodeContention per structure, cells sharded by pid so concurrent
//     recorders never contend on a cache line they both write. A shard's
//     cells are contiguous (same thread writes neighbouring nodes), so the
//     grid costs num_shards × num_nodes × 24 bytes, not a cache line per
//     (shard, node).
//   * Recording is on_level_walk(): ONE call per completed level of a
//     refresh walk, ONE relaxed load+store increment (no lock-prefixed RMW
//     — see the method comment) — the walk's outcome (first refresh /
//     second refresh / helped) implies its exact CAS attempt/failure counts
//     under the double-refresh lemma (1/0, 2/1, 2/2), so attempts and
//     failures are derived at read time instead of counted on the hot
//     path. bench_t1 asserts the resulting cost stays <= 3% of an
//     update's p50.
//   * Aggregation (per-node, per-level, whole-structure) happens on read,
//     exact at quiescence (single-writer cells; see on_level_walk for the
//     num_procs > kShards rt caveat), and exports through the standard
//     metrics JSON as
//     `<prefix>.level<k>.cas_fail_rate` / `.double_refresh_rate` gauges
//     (rates in parts-per-million — gauges are integers) next to the raw
//     counts the rates derive from.
//
// Compile-out: configuring with -DAPRAM_OBS_CONTENTION=OFF defines
// APRAM_OBS_CONTENTION_OFF and this class becomes a stateless no-op with
// the identical API — the instrumented hot paths are bit-identical in
// register accesses either way (contention ticks are process-local memory,
// never model registers), which tests/obs_test.cpp pins down.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace apram::obs {

#if defined(APRAM_OBS_CONTENTION_OFF)
inline constexpr bool kContentionEnabled = false;
#else
inline constexpr bool kContentionEnabled = true;
#endif

// A completed level walk's outcome. Under the double-refresh lemma each
// outcome pins the walk's exact CAS attempt/failure pair — first = (1, 0),
// second = (2, 1), helped = (2, 2) — which is what lets the hot path record
// one counter instead of three.
enum class WalkOutcome : int {
  kFirstRefresh = 0,   // installed on the first attempt
  kSecondRefresh = 1,  // first attempt lost, second installed
  kHelped = 2,         // both attempts lost (a rival's refresh covered ours)
};

// Aggregated view of one node / one level / one structure.
struct ContentionTotals {
  std::uint64_t cas_attempts = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t first_refresh = 0;   // installed on the first attempt
  std::uint64_t second_refresh = 0;  // installed on the second attempt
  std::uint64_t helped = 0;          // both attempts lost (rival covered it)

  // Completed level walks through this node/level.
  std::uint64_t walks() const { return first_refresh + second_refresh + helped; }

  double cas_fail_rate() const {
    return cas_attempts == 0 ? 0.0
                             : static_cast<double>(cas_failures) /
                                   static_cast<double>(cas_attempts);
  }
  // Fraction of walks that needed the second attempt (second refresh OR
  // fully helped) — the knob the 1+4h vs 1+8h gap turns on.
  double double_refresh_rate() const {
    const std::uint64_t w = walks();
    return w == 0 ? 0.0
                  : static_cast<double>(second_refresh + helped) /
                        static_cast<double>(w);
  }

  ContentionTotals& operator+=(const ContentionTotals& o) {
    cas_attempts += o.cas_attempts;
    cas_failures += o.cas_failures;
    first_refresh += o.first_refresh;
    second_refresh += o.second_refresh;
    helped += o.helped;
    return *this;
  }
};

class NodeContention {
 public:
  NodeContention() = default;

  // `num_nodes` cells (callers index them with their structure-local node
  // id); sharding scales with the process count, capped at kShards.
  NodeContention(int num_nodes, int num_procs) {
#if !defined(APRAM_OBS_CONTENTION_OFF)
    APRAM_CHECK(num_nodes >= 1 && num_procs >= 1);
    nodes_ = num_nodes;
    shards_ = 1;
    while (shards_ < num_procs && shards_ < kShards) shards_ *= 2;
    cells_ = std::make_unique<Cell[]>(
        static_cast<std::size_t>(shards_) * static_cast<std::size_t>(nodes_));
    levels_.assign(static_cast<std::size_t>(nodes_), 0);
#else
    (void)num_nodes;
    (void)num_procs;
#endif
  }

  bool enabled() const { return kContentionEnabled && nodes_ > 0; }
  int num_nodes() const { return nodes_; }

  // Declares node's level for per-level aggregation (level 0 = deepest;
  // the farray root is the highest level). Call at construction.
  void set_level(int node, int level) {
#if !defined(APRAM_OBS_CONTENTION_OFF)
    if (nodes_ == 0) return;
    APRAM_CHECK(node >= 0 && node < nodes_ && level >= 0);
    levels_[static_cast<std::size_t>(node)] = level;
#else
    (void)node;
    (void)level;
#endif
  }

  // Records one completed level walk at `node`. ONE relaxed load+store
  // increment on a pid-sharded cell — the outcome determines the walk's CAS
  // attempt/failure counts exactly (see WalkOutcome), so nothing else needs
  // counting. Deliberately NOT fetch_add: a lock-prefixed RMW is a full
  // barrier (~9 ns serialized) while the plain increment is ~1 ns, and the
  // cell has a single writer in every configuration that matters — the
  // simulator drives all pids from one thread, and rt runs with
  // num_procs <= kShards give each pid its own shard row. Two rt pids
  // sharing a shard (num_procs > kShards only) can lose an increment in the
  // load/store window; counts there are a telemetry-grade lower bound.
  // Zero register accesses either way: the model-visible step count is
  // untouched.
  void on_level_walk(int pid, int node, WalkOutcome outcome) {
#if !defined(APRAM_OBS_CONTENTION_OFF)
    if (nodes_ == 0) return;
    Cell& c = cell(pid, node);
    auto& slot = c.outcomes[static_cast<std::size_t>(outcome)];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
#else
    (void)pid;
    (void)node;
    (void)outcome;
#endif
  }

  // --- quiescent readers ---------------------------------------------------

  ContentionTotals node_totals(int node) const {
    ContentionTotals t;
#if !defined(APRAM_OBS_CONTENTION_OFF)
    if (nodes_ == 0) return t;
    APRAM_CHECK(node >= 0 && node < nodes_);
    for (int s = 0; s < shards_; ++s) {
      const Cell& c =
          cells_[static_cast<std::size_t>(s) * static_cast<std::size_t>(nodes_) +
                 static_cast<std::size_t>(node)];
      t.first_refresh += c.outcomes[0].load(std::memory_order_relaxed);
      t.second_refresh += c.outcomes[1].load(std::memory_order_relaxed);
      t.helped += c.outcomes[2].load(std::memory_order_relaxed);
    }
    // Derived under the double-refresh lemma: first = 1 attempt / 0 lost,
    // second = 2 / 1, helped = 2 / 2.
    t.cas_attempts = t.first_refresh + 2 * (t.second_refresh + t.helped);
    t.cas_failures = t.second_refresh + 2 * t.helped;
#else
    (void)node;
#endif
    return t;
  }

  int num_levels() const {
    int max_level = -1;
    for (int lvl : levels_) max_level = std::max(max_level, lvl);
    return max_level + 1;
  }

  ContentionTotals level_totals(int level) const {
    ContentionTotals t;
    for (int node = 0; node < nodes_; ++node) {
      if (levels_[static_cast<std::size_t>(node)] == level) {
        t += node_totals(node);
      }
    }
    return t;
  }

  ContentionTotals totals() const {
    ContentionTotals t;
    for (int node = 0; node < nodes_; ++node) t += node_totals(node);
    return t;
  }

  // Exports per-level gauges `<prefix>.level<k>.{cas_attempts, cas_failures,
  // first_refresh, second_refresh, helped, walks, cas_fail_rate,
  // double_refresh_rate}` — rates in parts-per-million. No-op (no gauges at
  // all, so `--require-gauges` fails loudly) when compiled out.
  void export_gauges(Registry& registry, const std::string& prefix) const;

 private:
  // Compiled out on purpose when contention is off: the counters below are
  // the entire per-structure memory cost.
  static constexpr int kShards = 16;

  struct Cell {  // 24 bytes, shard-contiguous — see the header comment
    std::atomic<std::uint64_t> outcomes[3]{};  // indexed by WalkOutcome
  };

#if !defined(APRAM_OBS_CONTENTION_OFF)
  Cell& cell(int pid, int node) {
    const int shard = (pid >= 0 ? pid : 0) & (shards_ - 1);
    return cells_[static_cast<std::size_t>(shard) *
                      static_cast<std::size_t>(nodes_) +
                  static_cast<std::size_t>(node)];
  }
#endif

  int nodes_ = 0;
  int shards_ = 0;
  std::unique_ptr<Cell[]> cells_;
  std::vector<int> levels_;  // [nodes_] node → level
};

}  // namespace apram::obs
