#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <optional>

#include "checks.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/union_find.hpp"
#include "obs/span.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/rt.hpp"
#include "util.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using apram::Rng;
using apram::obs::OpKind;
using apram::obs::SpanScope;

// Derives an independent stream per (seed, purpose).
Rng stream(std::uint64_t seed, std::uint64_t purpose) {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + purpose * 1000003ULL);
}

// Hands out [begin, end) slices of a round's op sequence. Threads claim
// slices as they go, so a thread the OS stalls holds back at most one slice
// instead of a fixed quarter of the round.
class Chunks {
 public:
  void reset(std::size_t total, int threads) {
    total_ = total;
    size_ = std::max<std::size_t>(
        1, total / (static_cast<std::size_t>(threads) * 64));
    next_.store(0);
  }

  bool claim(std::size_t& begin, std::size_t& end) {
    begin = next_.fetch_add(1, std::memory_order_relaxed) * size_;
    if (begin >= total_) return false;
    end = std::min(begin + size_, total_);
    return true;
  }

 private:
  alignas(64) std::atomic<std::size_t> next_{0};
  std::size_t total_ = 0;
  std::size_t size_ = 1;
};

// Times `call` when the op is sampled: two clock reads and a store.
// Returns the latency, or 0 when the op was not sampled.
template <class Call>
std::uint32_t timed(bool sampled, ThreadLog& log, const Call& call) {
  if (!sampled) {
    call();
    return 0;
  }
  const std::uint64_t t0 = now_ns();
  call();
  const auto ns = static_cast<std::uint32_t>(now_ns() - t0);
  log.lat.push_back(ns);
  return ns;
}

// Sums the totals NodeContention::export_gauges writes under `prefix`.
void add_contention(const apram::obs::Registry& reg, const std::string& prefix,
                    LayerTally& t) {
  for (const apram::obs::Gauge* g : reg.gauges()) {
    const auto v = static_cast<std::uint64_t>(g->value());
    if (g->name() == prefix + ".cas_attempts") t.farray_cas_attempts += v;
    if (g->name() == prefix + ".cas_failures") t.farray_cas_failures += v;
    if (g->name() == prefix + ".walks") t.farray_walks += v;
    if (g->name() == prefix + ".second_refresh" ||
        g->name() == prefix + ".helped") {
      t.farray_double_refresh += v;
    }
  }
}

// ---------------------------------------------------------------------------
// snapshot_scan_heavy / snapshot_update_heavy: TreeScanRT<MaxLattice<int64>>
// with n = T. Op i is an update (value >= 0) or a scan (-1).

class SnapshotWorkload final : public Workload {
 public:
  using MaxL = apram::MaxLattice<std::int64_t>;
  using Tree = apram::snapshot::TreeScanRT<MaxL>;

  SnapshotWorkload(int threads, std::uint64_t seed, int update_pct,
                   std::size_t ops)
      : n_(threads), seq_(ops), mask_(sample_mask(seed, 0, ops, kSampleRate)) {
    Rng rng = stream(seed, 1);
    global_max_ = std::numeric_limits<std::int64_t>::lowest();
    for (int p = 0; p < n_; ++p) {
      prefill_.push_back(static_cast<std::int64_t>(rng.below(1ULL << 40)));
      global_max_ = std::max(global_max_, prefill_.back());
    }
    for (auto& v : seq_) {
      v = rng.below(100) < static_cast<std::uint64_t>(update_pct)
              ? static_cast<std::int64_t>(rng.below(1ULL << 62))
              : -1;
      global_max_ = std::max(global_max_, v);
    }
  }

  std::string kind_name(int kind) const override {
    return kind == 0 ? "update" : "scan";
  }
  int num_kinds() const override { return 2; }
  std::uint64_t ops_per_round() const override { return seq_.size(); }

  void setup() override {
    tree_ = std::make_unique<Tree>(n_);
    for (int p = 0; p < n_; ++p) {
      tree_->update(p, prefill_[static_cast<std::size_t>(p)]);
    }
    chunks_.reset(seq_.size(), n_);
  }

  void attach(apram::obs::Registry& registry,
              apram::obs::Tracer* tracer) override {
    tree_->attach_obs(registry, "snapshot", tracer);
  }

  void run_thread(int pid, ThreadLog& log, bool traced) override {
    if (traced) {
      loop<true>(pid, log);
    } else {
      loop<false>(pid, log);
    }
  }

  std::uint64_t check() override {
    return check_final_scan(tree_->scan(0), global_max_);
  }

  void tally(LayerTally& t) const override {
    const auto rs = tree_->reclaim_stats();
    t.acquire_contention += rs.acquire_contention;
    t.live_versions = rs.live_versions();
    apram::obs::Registry reg;
    tree_->export_contention_gauges(reg, "tree");
    add_contention(reg, "tree", t);
  }

  void teardown() override { tree_.reset(); }

 private:
  template <bool kTraced>
  void loop(int pid, ThreadLog& log) {
    ScanCheck chk(global_max_);
    chk.wrote(prefill_[static_cast<std::size_t>(pid)]);
    Tree& tree = *tree_;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (chunks_.claim(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        const std::int64_t v = seq_[i];
        std::optional<SpanScope> span;
        if constexpr (kTraced) span.emplace(OpKind::kUser);
        if (v >= 0) {
          const std::uint32_t ns =
              timed(mask_[i], log, [&] { tree.update(pid, v); });
          if (ns != 0) log.kind_lat[0].push_back(ns);
          chk.wrote(v);
        } else {
          std::int64_t s = 0;
          const std::uint32_t ns =
              timed(mask_[i], log, [&] { s = tree.scan(pid); });
          if (ns != 0) log.kind_lat[1].push_back(ns);
          chk.scanned(s);
        }
      }
      log.ops += end - begin;
    }
    log.failed = chk.failed();
  }

  int n_;
  std::int64_t global_max_;
  std::vector<std::int64_t> prefill_;  // [n] one update per pid in set-up
  std::vector<std::int64_t> seq_;
  std::vector<std::uint8_t> mask_;
  Chunks chunks_;
  std::unique_ptr<Tree> tree_;
};

// ---------------------------------------------------------------------------
// queue_churn: PolylogQueueRT, 50% enqueue / 50% dequeue. Set-up prefills as
// many values as the round will dequeue, so no dequeue of the run can find
// the queue empty; the check drains it afterwards. Each thread enqueues
// values tagged with its pid and its own running count.

class QueueWorkload final : public Workload {
 public:
  QueueWorkload(int threads, std::uint64_t seed, std::size_t ops)
      : n_(threads),
        is_enq_(ops),
        mask_(sample_mask(seed, 0, ops, kSampleRate)),
        enqueued_(static_cast<std::size_t>(threads)),
        outs_(static_cast<std::size_t>(threads)) {
    Rng rng = stream(seed, 2);
    for (auto& e : is_enq_) {
      e = rng.below(2) == 0 ? 1 : 0;
      if (e == 0) ++dequeues_;
    }
  }

  std::string kind_name(int kind) const override {
    return kind == 0 ? "enqueue" : "dequeue";
  }
  int num_kinds() const override { return 2; }
  std::uint64_t ops_per_round() const override { return is_enq_.size(); }

  void setup() override {
    q_ = std::make_unique<apram::PolylogQueueRT>(n_);
    // Prefilled values come from an extra producer, id n_.
    for (std::uint64_t s = 1; s <= dequeues_; ++s) {
      q_->enqueue(0, queue_value(n_, s));
    }
    chunks_.reset(is_enq_.size(), n_);
  }

  void attach(apram::obs::Registry& registry,
              apram::obs::Tracer* tracer) override {
    q_->attach_obs(registry, "queue", tracer);
  }

  void run_thread(int pid, ThreadLog& log, bool traced) override {
    if (traced) {
      loop<true>(pid, log);
    } else {
      loop<false>(pid, log);
    }
  }

  std::uint64_t check() override {
    std::vector<std::vector<std::int64_t>> consumers = outs_;
    std::vector<std::int64_t> drain;
    for (std::int64_t v = q_->dequeue(0); v != -1; v = q_->dequeue(0)) {
      drain.push_back(v);
    }
    consumers.push_back(std::move(drain));
    std::vector<std::uint64_t> enqueued = enqueued_;
    enqueued.push_back(dequeues_);  // the prefill producer
    return check_queue(enqueued, consumers);
  }

  void tally(LayerTally& t) const override {
    const auto rs = q_->reclaim_stats();
    t.acquire_contention += rs.acquire_contention;
    t.live_versions = rs.live_versions();
    apram::obs::Registry reg;
    q_->export_contention_gauges(reg, "tree");
    add_contention(reg, "tree", t);
  }

  void teardown() override { q_.reset(); }

 private:
  template <bool kTraced>
  void loop(int pid, ThreadLog& log) {
    auto& out = outs_[static_cast<std::size_t>(pid)];
    out.clear();
    out.reserve(is_enq_.size() / static_cast<std::size_t>(n_));
    apram::PolylogQueueRT& q = *q_;
    std::uint64_t next = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (chunks_.claim(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        std::optional<SpanScope> span;
        if constexpr (kTraced) span.emplace(OpKind::kUser);
        if (is_enq_[i] != 0) {
          const std::int64_t v = queue_value(pid, ++next);
          const std::uint32_t ns =
              timed(mask_[i], log, [&] { q.enqueue(pid, v); });
          if (ns != 0) log.kind_lat[0].push_back(ns);
        } else {
          std::int64_t v = 0;
          const std::uint32_t ns =
              timed(mask_[i], log, [&] { v = q.dequeue(pid); });
          if (ns != 0) log.kind_lat[1].push_back(ns);
          out.push_back(v);
        }
      }
      log.ops += end - begin;
    }
    enqueued_[static_cast<std::size_t>(pid)] = next;
  }

  int n_;
  std::uint64_t dequeues_ = 0;
  std::vector<std::uint8_t> is_enq_;
  std::vector<std::uint8_t> mask_;
  std::vector<std::uint64_t> enqueued_;          // [n] per round
  std::vector<std::vector<std::int64_t>> outs_;  // [n] dequeue results
  Chunks chunks_;
  std::unique_ptr<apram::PolylogQueueRT> q_;
};

// ---------------------------------------------------------------------------
// graph_components: UnionFindRT over kUniverse vertices fed a Zipf-skewed
// edge stream; each edge is a unite plus a Counter2RT::inc. One op in 32 is
// a same_set query and one in 256 a num_sets query instead.

class GraphWorkload final : public Workload {
 public:
  enum Kind : std::uint8_t { kEdge, kSameSet, kNumSets };
  struct Op {
    Edge e;
    Kind kind;
  };

  GraphWorkload(int threads, std::uint64_t seed, std::size_t ops)
      : n_(threads),
        seq_(ops),
        mask_(sample_mask(seed, 0, ops, kSampleRate)),
        queries_(static_cast<std::size_t>(threads)) {
    // Zipf(s = 1) over ranks, mapped through a seeded permutation so that
    // the hot vertices are not simply the smallest ids.
    Rng rng = stream(seed, 3);
    std::vector<std::int32_t> perm(kUniverse);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    std::vector<double> cdf(kUniverse);
    double acc = 0.0;
    for (int r = 0; r < kUniverse; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      cdf[static_cast<std::size_t>(r)] = acc;
    }
    const auto zipf = [&] {
      const double u = rng.uniform() * acc;
      const auto r = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      return perm[std::min(r, perm.size() - 1)];
    };
    for (Op& op : seq_) {
      const std::uint64_t roll = rng.below(256);
      op.kind = roll == 0 ? kNumSets : (roll % 32 == 1 ? kSameSet : kEdge);
      op.e.a = zipf();
      do {
        op.e.b = zipf();
      } while (op.e.b == op.e.a);
      if (op.kind == kEdge) edges_.push_back(op.e);
    }
  }

  std::string kind_name(int kind) const override {
    static const char* const kNames[] = {"edge", "unite", "inc", "same_set"};
    return kNames[kind];
  }
  int num_kinds() const override { return 4; }
  std::uint64_t ops_per_round() const override { return seq_.size(); }

  void setup() override {
    uf_ = std::make_unique<apram::UnionFindRT>(n_, kUniverse);
    counter_ = std::make_unique<apram::universal2::Counter2RT>(n_);
    chunks_.reset(seq_.size(), n_);
  }

  void attach(apram::obs::Registry& registry,
              apram::obs::Tracer* tracer) override {
    uf_->attach_obs(registry, "uf", tracer);
    counter_->attach_obs(registry, "u2", tracer);
  }

  void run_thread(int pid, ThreadLog& log, bool traced) override {
    if (traced) {
      loop<true>(pid, log);
    } else {
      loop<false>(pid, log);
    }
  }

  std::uint64_t check() override {
    std::vector<std::int32_t> roots(kUniverse);
    for (std::int32_t v = 0; v < kUniverse; ++v) {
      roots[static_cast<std::size_t>(v)] = uf_->find(0, v);
    }
    const std::int64_t sets = uf_->num_sets(0);
    std::uint64_t failed = check_partition(edges_, roots, sets);
    for (const auto& qs : queries_) failed += check_queries(qs, roots, sets);
    failed += check_counter(counter_->read(0), edges_.size());
    return failed;
  }

  void tally(LayerTally& t) const override {
    const auto rs = uf_->reclaim_stats();
    const auto cs = counter_->reclaim_stats();
    t.acquire_contention += rs.acquire_contention + cs.acquire_contention;
    t.live_versions = rs.live_versions() + cs.live_versions();
    t.u2_incs += edges_.size();
    for (int p = 0; p < n_; ++p) {
      t.u2_slow_entries += counter_->slow_path_entries(p);
    }
  }

  void teardown() override {
    uf_.reset();
    counter_.reset();
  }

 private:
  template <bool kTraced>
  void loop(int pid, ThreadLog& log) {
    auto& queries = queries_[static_cast<std::size_t>(pid)];
    queries.clear();
    apram::UnionFindRT& uf = *uf_;
    apram::universal2::Counter2RT& counter = *counter_;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (chunks_.claim(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        const Op& op = seq_[i];
        std::optional<SpanScope> span;
        if constexpr (kTraced) span.emplace(OpKind::kUser);
        switch (op.kind) {
          case kEdge:
            if (mask_[i] != 0) {
              // Split timing: the unite and the inc land in their own kinds.
              const std::uint64_t t0 = now_ns();
              uf.unite(pid, op.e.a, op.e.b);
              const std::uint64_t t1 = now_ns();
              counter.inc(pid);
              const std::uint64_t t2 = now_ns();
              log.lat.push_back(static_cast<std::uint32_t>(t2 - t0));
              log.kind_lat[0].push_back(static_cast<std::uint32_t>(t2 - t0));
              log.kind_lat[1].push_back(static_cast<std::uint32_t>(t1 - t0));
              log.kind_lat[2].push_back(static_cast<std::uint32_t>(t2 - t1));
            } else {
              uf.unite(pid, op.e.a, op.e.b);
              counter.inc(pid);
            }
            break;
          case kSameSet: {
            bool same = false;
            const std::uint32_t ns = timed(mask_[i], log, [&] {
              same = uf.same_set(pid, op.e.a, op.e.b);
            });
            if (ns != 0) log.kind_lat[3].push_back(ns);
            queries.push_back(Query{false, op.e, same ? 1 : 0});
            break;
          }
          case kNumSets: {
            std::int64_t sets = 0;
            timed(mask_[i], log, [&] { sets = uf.num_sets(pid); });
            queries.push_back(Query{true, op.e, sets});
            break;
          }
        }
      }
      log.ops += end - begin;
    }
  }

  int n_;
  std::vector<Op> seq_;
  std::vector<std::uint8_t> mask_;
  std::vector<Edge> edges_;                  // every edge op of seq_
  std::vector<std::vector<Query>> queries_;  // [n] per round
  Chunks chunks_;
  std::unique_ptr<apram::UnionFindRT> uf_;
  std::unique_ptr<apram::universal2::Counter2RT> counter_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, int threads,
                                        std::uint64_t seed) {
  if (name == "snapshot_scan_heavy") {
    return std::make_unique<SnapshotWorkload>(threads, seed, 10, 1u << 20);
  }
  if (name == "snapshot_update_heavy") {
    return std::make_unique<SnapshotWorkload>(threads, seed, 90, 1u << 18);
  }
  if (name == "queue_churn") {
    return std::make_unique<QueueWorkload>(threads, seed, 1u << 16);
  }
  if (name == "graph_components") {
    return std::make_unique<GraphWorkload>(threads, seed, 1u << 17);
  }
  return nullptr;
}

}  // namespace perfbench
