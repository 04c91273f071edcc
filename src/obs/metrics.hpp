// apram::obs — lock-free, per-thread-sharded metrics registry.
//
// The registry holds totals for the rt layer and the benches: probe
// counters, latency histograms and gauges. The simulator's per-process
// read/write counts are not mirrored here; sim::World::counts keeps them.
// The design:
//
//   * Recording one event is ONE relaxed fetch_add on a cache-line-private
//     shard slot (histograms add a branch-free bucket computation). No locks,
//     no stores shared between writer threads, wait-free by construction.
//   * Aggregation happens on read: value() sums the shards. Reads are exact
//     at quiescence (e.g. after joining worker threads) and monotone-
//     approximate while writers run.
//   * Metric handles are created through a Registry and stay valid for the
//     Registry's lifetime; creation takes a mutex (cold path only), so hot
//     code caches `Counter&` references.
//
// Shard selection: each thread lazily claims a shard index via this_shard();
// the rt thread harness pins shard == pid so that harness threads land on
// distinct slots. A metric has kShards slots and shard s records into slot
// s % kShards. Two threads sharing a slot is safe (slots are atomics) and
// only costs cache-line traffic; totals stay exact either way.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace apram::obs {

// Upper bound on distinct shard indices; pin_this_shard clamps beyond it.
inline constexpr int kMaxShards = 64;

// Slots per counter and per histogram.
inline constexpr int kShards = 16;

// Stable shard index of the calling thread, lazily assigned round-robin.
int this_shard();

// Pins the calling thread's shard (the rt harness pins shard == pid). Ids
// ≥ kMaxShards are clamped modulo kMaxShards.
void pin_this_shard(int shard);

namespace detail {
struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

// Monotone event counter. add() is one relaxed fetch_add.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add(std::uint64_t delta = 1) {
    slots_[this_shard() % kShards].v.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const detail::Slot& s : slots_) {
      sum += s.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::string name_;
  detail::Slot slots_[kShards];
};

// Point-in-time value (set/add, last-writer-wins). Not sharded: a gauge is a
// statement about current state, not a sum of contributions.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::int64_t> v_{0};
};

// Power-of-two histogram: bucket i counts values whose bit width is i, i.e.
// bucket 0 holds {0}, bucket i>0 holds [2^(i-1), 2^i). Exact count and sum,
// log-scale distribution — the right shape for step counts and latencies.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit_width of uint64_t is 0..64

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  static int bucket_of(std::uint64_t v) {
    int b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  // Lower bound of bucket b (0 for b==0, else 2^(b-1)).
  static std::uint64_t bucket_floor(int b) {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1));
  }

  void record(std::uint64_t v) {
    Shard& sh = shards_[this_shard() % kShards];
    sh.buckets[static_cast<std::size_t>(bucket_of(v))].v.fetch_add(
        1, std::memory_order_relaxed);
    sh.sum.fetch_add(v, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;  // size kBuckets
    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }

    // Estimated p-th percentile (p in [0, 100]), linearly interpolated
    // inside the power-of-two bucket holding the target rank. Exact up to
    // bucket resolution; edge cases: empty histogram → 0, bucket 0 (the
    // value 0) → 0, the saturated top bucket (values ≥ 2^63) → its floor
    // (no upper edge to interpolate toward).
    double percentile(double p) const {
      if (count == 0) return 0.0;
      if (p < 0.0) p = 0.0;
      if (p > 100.0) p = 100.0;
      const double target = p / 100.0 * static_cast<double>(count);
      double cum = 0.0;
      for (int b = 0; b < kBuckets; ++b) {
        const auto n = static_cast<double>(
            buckets[static_cast<std::size_t>(b)]);
        if (n == 0.0) continue;
        if (cum + n >= target) {
          const auto lo = static_cast<double>(bucket_floor(b));
          if (b == 0 || b == kBuckets - 1) return lo;
          const auto hi = static_cast<double>(bucket_floor(b + 1));
          double within = (target - cum) / n;
          if (within < 0.0) within = 0.0;
          if (within > 1.0) within = 1.0;
          return lo + (hi - lo) * within;
        }
        cum += n;
      }
      // All mass below target can only happen through rounding; report the
      // highest non-empty bucket's floor.
      for (int b = kBuckets - 1; b >= 0; --b) {
        if (buckets[static_cast<std::size_t>(b)] != 0) {
          return static_cast<double>(bucket_floor(b));
        }
      }
      return 0.0;
    }
  };

  Snapshot snapshot() const {
    Snapshot out;
    out.buckets.assign(kBuckets, 0);
    for (const Shard& sh : shards_) {
      for (int b = 0; b < kBuckets; ++b) {
        out.buckets[static_cast<std::size_t>(b)] +=
            sh.buckets[static_cast<std::size_t>(b)].v.load(
                std::memory_order_relaxed);
      }
      out.sum += sh.sum.load(std::memory_order_relaxed);
    }
    for (auto c : out.buckets) out.count += c;
    return out;
  }

 private:
  struct Shard {
    detail::Slot buckets[kBuckets];
    alignas(64) std::atomic<std::uint64_t> sum{0};
  };

  std::string name_;
  Shard shards_[kShards];
};

// Histogram front-end for wall-clock operation latencies. Caches the
// `Histogram&` at construction (cold path) so record()/Timer stay on the
// lock-free hot path. Values are nanoseconds; the JSON exporter emits
// p50/p90/p99/p99.9 next to count/sum/mean for every histogram.
class LatencyRecorder {
 public:
  LatencyRecorder(class Registry& registry, const std::string& name);

  void record_ns(std::uint64_t ns) { hist_->record(ns); }

  // RAII: records the scope's duration in nanoseconds on destruction.
  class Timer {
   public:
    explicit Timer(LatencyRecorder& rec)
        : rec_(&rec), begin_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      rec_->record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin_)
              .count()));
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

   private:
    LatencyRecorder* rec_;
    std::chrono::steady_clock::time_point begin_;
  };

 private:
  Histogram* hist_;
};

// Named metric store. Creation is mutex-guarded (cold path); returned
// references stay valid for the Registry's lifetime. Names are unique across
// metric kinds — asking for "x" as a counter after creating gauge "x" aborts.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Sorted-by-name views for exporters. The vectors are snapshots of the
  // registration set; the pointed-to metrics keep updating.
  std::vector<const Counter*> counters() const;
  std::vector<const Gauge*> gauges() const;
  std::vector<const Histogram*> histograms() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  mutable std::mutex mu_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// The canonical reads/writes/total triple. Every layer that accounts for
// shared-memory accesses speaks this one type: the simulator's per-process
// step counters (`sim::StepCounts` is an alias) and the fault certifier's
// per-pid bounds (`fault::StepBound` is an alias). A compare-and-swap counts
// as one write: it is one atomic step of the extended model, and folding it
// into `writes` keeps the paper's reads/writes bookkeeping intact for
// algorithms that never CAS.
struct AccessCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t total() const { return reads + writes; }

  // The accesses made between two readings: `after - before`.
  friend AccessCounts operator-(const AccessCounts& a, const AccessCounts& b) {
    return {a.reads - b.reads, a.writes - b.writes};
  }
};

}  // namespace apram::obs
