// apram::obs — lock-free, per-thread-sharded metrics registry.
//
// The paper's claims are quantitative (exact read/write counts per operation,
// step bounds per theorem), so the measurement substrate must be exact and
// must not perturb the hot paths it measures. The design:
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
// the rt thread harness pins shard == pid so per-shard numbers line up with
// the model's process ids. Two threads landing on the same shard is safe
// (slots are atomics) — only attribution, never totals, can blur. The blur
// is structural beyond kMaxShards (64): pin_this_shard clamps shard ids
// modulo kMaxShards, so in a >64-thread harness threads 0 and 64 share a
// shard — totals stay exact, per-shard attribution does not. The clamp is
// never silent: the first occurrence per process warns on stderr, every
// occurrence bumps pinning_degraded() (exported as the `obs.pinning_degraded`
// gauge). Keep per-pid readings inside 64 threads, or raise kMaxShards.
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

// Upper bound on distinct shard slots; threads beyond this share slots.
inline constexpr int kMaxShards = 64;

// Stable shard index of the calling thread, lazily assigned round-robin.
int this_shard();

// Pins the calling thread's shard (the rt harness pins shard == pid so that
// per-shard readings match process ids). Ids ≥ kMaxShards are clamped
// modulo kMaxShards — the pin succeeds with the attribution blur documented
// in the header comment, a one-time warning goes to stderr, and every
// clamped pin increments pinning_degraded().
void pin_this_shard(int shard);

// Number of pin_this_shard calls that had to clamp (shard ≥ kMaxShards)
// since process start. Zero means every per-shard reading is exact. The
// JSON exporter surfaces this as the `obs.pinning_degraded` gauge.
std::uint64_t pinning_degraded();

namespace detail {
struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

// Monotone event counter. add() is one relaxed fetch_add.
class Counter {
 public:
  Counter(std::string name, int num_shards)
      : name_(std::move(name)),
        num_shards_(num_shards),
        slots_(new detail::Slot[static_cast<std::size_t>(num_shards)]) {}

  const std::string& name() const { return name_; }

  void add(std::uint64_t delta = 1) { add_shard(this_shard(), delta); }

  // For callers that know their shard (the single-threaded simulator always
  // records into shard 0 via this path — no TLS lookup).
  void add_shard(int shard, std::uint64_t delta) {
    slots_[static_cast<std::size_t>(shard % num_shards_)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (int s = 0; s < num_shards_; ++s) {
      sum += slots_[static_cast<std::size_t>(s)].v.load(
          std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::string name_;
  int num_shards_;
  std::unique_ptr<detail::Slot[]> slots_;
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

  Histogram(std::string name, int num_shards)
      : name_(std::move(name)), num_shards_(num_shards) {
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

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
    Shard& sh = *shards_[static_cast<std::size_t>(this_shard() % num_shards_)];
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
    for (const auto& sh : shards_) {
      for (int b = 0; b < kBuckets; ++b) {
        out.buckets[static_cast<std::size_t>(b)] +=
            sh->buckets[static_cast<std::size_t>(b)].v.load(
                std::memory_order_relaxed);
      }
      out.sum += sh->sum.load(std::memory_order_relaxed);
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
  int num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Histogram front-end for wall-clock operation latencies. Caches the
// `Histogram&` at construction (cold path) so record()/Timer stay on the
// lock-free hot path. Values are nanoseconds; the JSON exporter emits
// p50/p90/p99/p99.9 next to count/sum/mean for every histogram.
class LatencyRecorder {
 public:
  LatencyRecorder(class Registry& registry, const std::string& name);

  Histogram& histogram() { return *hist_; }

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
  explicit Registry(int num_shards = 16);

  int num_shards() const { return num_shards_; }

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

  int num_shards_;
  mutable std::mutex mu_;
  std::map<std::string, Kind> kinds_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Measures the growth of a counter across a region of code — the registry
// replacement for the old bespoke `StepDelta`.
class CounterDelta {
 public:
  explicit CounterDelta(const Counter& c) : c_(&c), before_(c.value()) {}

  std::uint64_t delta() const { return c_->value() - before_; }
  void reset() { before_ = c_->value(); }

 private:
  const Counter* c_;
  std::uint64_t before_;
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
};

}  // namespace apram::obs
