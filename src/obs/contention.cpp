#include "obs/contention.hpp"

namespace apram::obs {

#if !defined(APRAM_OBS_CONTENTION_OFF)

namespace {

std::int64_t to_ppm(double rate) {
  return static_cast<std::int64_t>(rate * 1e6 + 0.5);
}

void export_totals(Registry& registry, const std::string& prefix,
                   const ContentionTotals& t) {
  registry.gauge(prefix + ".cas_attempts")
      .set(static_cast<std::int64_t>(t.cas_attempts));
  registry.gauge(prefix + ".cas_failures")
      .set(static_cast<std::int64_t>(t.cas_failures));
  registry.gauge(prefix + ".first_refresh")
      .set(static_cast<std::int64_t>(t.first_refresh));
  registry.gauge(prefix + ".second_refresh")
      .set(static_cast<std::int64_t>(t.second_refresh));
  registry.gauge(prefix + ".helped").set(static_cast<std::int64_t>(t.helped));
  registry.gauge(prefix + ".walks").set(static_cast<std::int64_t>(t.walks()));
  // Rates are parts-per-million (gauges are integers). The raw counts above
  // are the source of truth; apram-trace heatmap recomputes exact ratios.
  registry.gauge(prefix + ".cas_fail_rate").set(to_ppm(t.cas_fail_rate()));
  registry.gauge(prefix + ".double_refresh_rate")
      .set(to_ppm(t.double_refresh_rate()));
}

}  // namespace

void NodeContention::export_gauges(Registry& registry,
                                   const std::string& prefix) const {
  if (nodes_ == 0) return;
  const int levels = num_levels();
  for (int lvl = 0; lvl < levels; ++lvl) {
    export_totals(registry, prefix + ".level" + std::to_string(lvl),
                  level_totals(lvl));
  }
  export_totals(registry, prefix, totals());
}

#else  // APRAM_OBS_CONTENTION_OFF

void NodeContention::export_gauges(Registry&, const std::string&) const {}

#endif

}  // namespace apram::obs
