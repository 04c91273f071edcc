#include "obs/metrics.hpp"

#include <cstdio>

namespace apram::obs {

namespace {
std::atomic<int> g_next_shard{0};
std::atomic<std::uint64_t> g_pinning_degraded{0};
thread_local int tls_shard = -1;
thread_local int tls_pid = -1;
}  // namespace

int thread_pid() { return tls_pid; }

void set_thread_pid(int pid) { tls_pid = pid; }

int this_shard() {
  if (tls_shard < 0) {
    tls_shard = g_next_shard.fetch_add(1, std::memory_order_relaxed) %
                kMaxShards;
  }
  return tls_shard;
}

void pin_this_shard(int shard) {
  APRAM_CHECK(shard >= 0);
  if (shard >= kMaxShards) {
    // Loud, not fatal: totals stay exact, per-shard attribution blurs.
    // Warn once per process (fetch_add returning 0 elects the first caller)
    // and count every occurrence so exporters can flag the run.
    if (g_pinning_degraded.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::fprintf(stderr,
                   "[apram::obs] warning: pin_this_shard(%d) beyond "
                   "kMaxShards=%d; clamping modulo — per-shard attribution "
                   "is degraded (totals stay exact). See the "
                   "obs.pinning_degraded gauge.\n",
                   shard, kMaxShards);
    }
  }
  tls_shard = shard % kMaxShards;
}

std::uint64_t pinning_degraded() {
  return g_pinning_degraded.load(std::memory_order_relaxed);
}

LatencyRecorder::LatencyRecorder(Registry& registry, const std::string& name)
    : hist_(&registry.histogram(name)) {}

Registry::Registry(int num_shards) : num_shards_(num_shards) {
  APRAM_CHECK(num_shards >= 1 && num_shards <= kMaxShards);
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  APRAM_CHECK_MSG(kinds_.find(name) == kinds_.end(),
                  "metric name registered with a different kind");
  kinds_.emplace(name, Kind::kCounter);
  auto owned = std::make_unique<Counter>(name, num_shards_);
  Counter& ref = *owned;
  counters_.emplace(name, std::move(owned));
  return ref;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  APRAM_CHECK_MSG(kinds_.find(name) == kinds_.end(),
                  "metric name registered with a different kind");
  kinds_.emplace(name, Kind::kGauge);
  auto owned = std::make_unique<Gauge>(name);
  Gauge& ref = *owned;
  gauges_.emplace(name, std::move(owned));
  return ref;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  APRAM_CHECK_MSG(kinds_.find(name) == kinds_.end(),
                  "metric name registered with a different kind");
  kinds_.emplace(name, Kind::kHistogram);
  auto owned = std::make_unique<Histogram>(name, num_shards_);
  Histogram& ref = *owned;
  histograms_.emplace(name, std::move(owned));
  return ref;
}

std::vector<const Counter*> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Counter*> out;
  out.reserve(counters_.size());
  for (const auto& [_, c] : counters_) out.push_back(c.get());
  return out;
}

std::vector<const Gauge*> Registry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Gauge*> out;
  out.reserve(gauges_.size());
  for (const auto& [_, g] : gauges_) out.push_back(g.get());
  return out;
}

std::vector<const Histogram*> Registry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Histogram*> out;
  out.reserve(histograms_.size());
  for (const auto& [_, h] : histograms_) out.push_back(h.get());
  return out;
}

}  // namespace apram::obs
