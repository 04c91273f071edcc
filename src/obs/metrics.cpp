#include "obs/metrics.hpp"

#include "obs/trace.hpp"

namespace apram::obs {

namespace {
std::atomic<int> g_next_shard{0};
}  // namespace

int detail::next_shard() {
  return g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
}

void set_thread_identity(int pid, Tracer* tracer) {
  APRAM_CHECK(pid >= 0);
  if (tracer != nullptr) tracer->clear_spans(pid);
  detail::tls_thread = {tracer, pid, pid % kMaxShards};
}

LatencyRecorder::LatencyRecorder(Registry& registry, const std::string& name)
    : hist_(&registry.histogram(name)) {}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  APRAM_CHECK_MSG(kinds_.find(name) == kinds_.end(),
                  "metric name registered with a different kind");
  kinds_.emplace(name, Kind::kCounter);
  auto owned = std::make_unique<Counter>(name);
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
  auto owned = std::make_unique<Histogram>(name);
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
