// perfbench — output checks. Each checker returns the number of operations
// whose result is wrong; the sum over a run is the `failed` count that
// ops_failed_frac divides by ops attempted. Pure functions over recorded
// results, so tests/checks_test.cpp can plant corruptions in them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

// ---- snapshot (TreeScan over MaxLattice<int64>) ---------------------------
//
// Per thread: every scan is at least the previous scan of the same thread
// (root values form a chain), at least the largest value this thread has
// written (its completed updates are visible), and at most the largest value
// any thread writes this round. A failing scan does not move the baseline.
class ScanCheck {
 public:
  explicit ScanCheck(std::int64_t global_max) : global_max_(global_max) {}

  void wrote(std::int64_t v) { own_max_ = std::max(own_max_, v); }

  void scanned(std::int64_t s) {
    if (s < prev_ || s < own_max_ || s > global_max_) {
      ++failed_;
      return;
    }
    prev_ = s;
  }

  std::uint64_t failed() const { return failed_; }

 private:
  static constexpr std::int64_t kBottom =
      std::numeric_limits<std::int64_t>::lowest();
  std::int64_t global_max_;
  std::int64_t prev_ = kBottom;
  std::int64_t own_max_ = kBottom;
  std::uint64_t failed_ = 0;
};

// The scan taken at quiescence must equal the largest value written.
inline std::uint64_t check_final_scan(std::int64_t final_scan,
                                      std::int64_t global_max) {
  return final_scan == global_max ? 0 : 1;
}

// ---- queue (PolylogQueueRT) -----------------------------------------------
//
// Values carry their producer and a per-producer sequence number (1-based),
// so a dequeued value names the enqueue it came from.
inline std::int64_t queue_value(int producer, std::uint64_t seq) {
  return (static_cast<std::int64_t>(producer) << 40) |
         static_cast<std::int64_t>(seq);
}
inline int queue_producer(std::int64_t v) { return static_cast<int>(v >> 40); }
inline std::uint64_t queue_seq(std::int64_t v) {
  return static_cast<std::uint64_t>(v & ((std::int64_t{1} << 40) - 1));
}

// `enqueued[p]` is how many values producer p enqueued (seqs 1..enqueued[p]);
// `consumers` holds each consumer's dequeue results in the order it got
// them, the post-run drain included. The prefill makes the queue non-empty
// at every dequeue of the run, so an empty response (-1) or a value no
// producer enqueued is a failure. Failures counted: empty or foreign
// responses, values handed out twice, values never handed out, and, within
// one consumer, a producer's values out of enqueue order.
inline std::uint64_t check_queue(
    const std::vector<std::uint64_t>& enqueued,
    const std::vector<std::vector<std::int64_t>>& consumers) {
  const int producers = static_cast<int>(enqueued.size());
  std::vector<std::vector<std::uint8_t>> seen(enqueued.size());
  for (std::size_t p = 0; p < enqueued.size(); ++p) {
    seen[p].assign(enqueued[p] + 1, 0);
  }
  std::uint64_t failed = 0;
  for (const auto& log : consumers) {
    std::vector<std::uint64_t> last(enqueued.size(), 0);
    for (const std::int64_t v : log) {
      const int p = v < 0 ? -1 : queue_producer(v);
      const std::uint64_t s = v < 0 ? 0 : queue_seq(v);
      if (p < 0 || p >= producers || s == 0 || s > enqueued[p]) {
        ++failed;  // empty response or a value nobody enqueued
        continue;
      }
      if (seen[p][s]++ != 0) ++failed;  // handed out twice
      if (s <= last[p]) ++failed;       // producer order broken
      last[p] = std::max(last[p], s);
    }
  }
  for (std::size_t p = 0; p < enqueued.size(); ++p) {
    for (std::uint64_t s = 1; s <= enqueued[p]; ++s) {
      if (seen[p][s] == 0) ++failed;  // lost
    }
  }
  return failed;
}

// ---- union-find (UnionFindRT) and the edge counter (Counter2RT) -----------

// Sequential min-root union-find: the oracle for the concurrent forest,
// whose set representative is always the set's minimum element.
class SeqUnionFind {
 public:
  explicit SeqUnionFind(int universe)
      : parent_(static_cast<std::size_t>(universe)), sets_(universe) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::int32_t find(std::int32_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      auto& px = parent_[static_cast<std::size_t>(x)];
      px = parent_[static_cast<std::size_t>(px)];
      x = px;
    }
    return x;
  }

  void unite(std::int32_t a, std::int32_t b) {
    const std::int32_t ra = find(a);
    const std::int32_t rb = find(b);
    if (ra == rb) return;
    parent_[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
    --sets_;
  }

  std::int64_t num_sets() const { return sets_; }

 private:
  std::vector<std::int32_t> parent_;
  std::int64_t sets_;
};

struct Edge {
  std::int32_t a = 0;
  std::int32_t b = 0;
};

// `roots[v]` is the concurrent find(v) at quiescence. Counts every vertex
// whose root differs from the oracle's, plus one if num_sets is not exact.
inline std::uint64_t check_partition(const std::vector<Edge>& edges,
                                     const std::vector<std::int32_t>& roots,
                                     std::int64_t num_sets) {
  SeqUnionFind oracle(static_cast<int>(roots.size()));
  for (const Edge& e : edges) oracle.unite(e.a, e.b);
  std::uint64_t failed = 0;
  for (std::size_t v = 0; v < roots.size(); ++v) {
    if (roots[v] != oracle.find(static_cast<std::int32_t>(v))) ++failed;
  }
  if (num_sets != oracle.num_sets()) ++failed;
  return failed;
}

// A query answered during the run. Sets only merge, so a same_set that
// said yes must still hold at quiescence, and a num_sets answer must lie
// between the final count and the universe size.
struct Query {
  bool is_num_sets = false;
  Edge pair;
  std::int64_t answer = 0;
};

inline std::uint64_t check_queries(const std::vector<Query>& queries,
                                   const std::vector<std::int32_t>& roots,
                                   std::int64_t final_sets) {
  const auto universe = static_cast<std::int64_t>(roots.size());
  std::uint64_t failed = 0;
  for (const Query& q : queries) {
    if (q.is_num_sets) {
      if (q.answer < final_sets || q.answer > universe) ++failed;
    } else if (q.answer != 0 &&
               roots[static_cast<std::size_t>(q.pair.a)] !=
                   roots[static_cast<std::size_t>(q.pair.b)]) {
      ++failed;
    }
  }
  return failed;
}

// The counter's final read must equal the number of edges processed.
inline std::uint64_t check_counter(std::int64_t final_read,
                                   std::uint64_t edges) {
  return final_read == static_cast<std::int64_t>(edges) ? 0 : 1;
}

}  // namespace perfbench
