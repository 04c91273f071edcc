// perfbench — the four seeded closed-loop workloads over the rt objects.
//
// Every workload follows one shape. Inputs (the op sequence, edge stream,
// which ops get timed) are generated from the seed when the workload is
// built, before anything is timed. A run is a series of rounds; each round
// constructs a fresh object and prefills it (timed as set-up), runs the
// round's fixed op sequence on T threads from a plain loop inside
// rt::parallel_run (each thread claims the next slice of the sequence and
// issues its next call only when the previous one returned), checks every
// output, and destroys the object.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

// Sampled per-op latencies are also split by op kind for the per-layer
// metrics; each workload names its kinds.
inline constexpr int kMaxKinds = 4;

// What one thread recorded in one round.
struct ThreadLog {
  double t0 = 0.0;  // after the start barrier, seconds
  double t1 = 0.0;  // after its last op
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // checks made inside the loop
  std::vector<std::uint32_t> lat;                  // sampled op latency, ns
  std::vector<std::uint32_t> kind_lat[kMaxKinds];  // same samples by kind
};

// Layer counters read from the objects at quiescence, summed over rounds.
struct LayerTally {
  std::uint64_t ops = 0;
  std::uint64_t acquire_contention = 0;
  std::uint64_t live_versions = 0;  // last round's, at quiescence
  std::uint64_t farray_cas_attempts = 0;
  std::uint64_t farray_cas_failures = 0;
  std::uint64_t farray_walks = 0;
  std::uint64_t farray_double_refresh = 0;
  std::uint64_t u2_incs = 0;
  std::uint64_t u2_slow_entries = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string kind_name(int kind) const = 0;
  virtual int num_kinds() const = 0;
  virtual std::uint64_t ops_per_round() const = 0;

  // Construct the object and prefill it. Timed as set-up.
  virtual void setup() = 0;
  // Instrument the object built by setup() (traced pass only).
  virtual void attach(apram::obs::Registry& registry,
                      apram::obs::Tracer* tracer) = 0;
  // Thread `pid`'s timed loop; `traced` wraps every call in a span.
  virtual void run_thread(int pid, ThreadLog& log, bool traced) = 0;
  // Output checks at quiescence; returns the number of failed ops.
  virtual std::uint64_t check() = 0;
  virtual void tally(LayerTally& t) const = 0;
  virtual void teardown() = 0;
};

// Latency sample rate: one op in kSampleRate is timed.
inline constexpr std::uint32_t kSampleRate = 16;

// Union-find universe of graph_components (see README.md for the sizing).
inline constexpr int kUniverse = 49152;

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, int threads,
                                        std::uint64_t seed);

}  // namespace perfbench
