// Small real-thread harness for stress tests and wall-time benchmarks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/rt_inject.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace apram::rt {

// Runs body(pid) on `num_threads` threads, released simultaneously by a
// start barrier, and joins them all. Exceptions escaping a body terminate
// (concurrent test bodies must not throw).
//
// Each worker declares its obs identity before the body runs, in one
// obs::set_thread_identity call: metrics shard and trace ring == pid, so
// instrumented registers attribute work to the right model process. With a
// tracer (one ring per thread required), every thread additionally emits
// kSpawn/kDone events; the join in parallel_run is the quiescence point
// after which tracer reads are exact.
void parallel_run(int num_threads, const std::function<void(int)>& body,
                  obs::Tracer* tracer = nullptr);

// parallel_run with a hard stall: arms `injector` so that thread `victim`
// parks after exactly `stall_after` register accesses (see
// fault::RtInjector::arm_stall), waits for the victim to actually park —
// or for its body to finish first, mirroring the sim's completion-wins
// crash semantics — runs `while_stalled()` on the calling thread against
// the victim's half-finished state, releases the stall, and joins.
//
// `point` selects where the victim parks: at the top of an access (the
// default) or mid-read between version acquire and dereference
// (fault::StallPoint::kHold) — the latter pins a version of a bounded
// register for the whole while_stalled() window.
//
// The injector must already be attached to the registers the bodies use.
// while_stalled executes on the caller, which has no model pid, so its own
// register accesses pass through the injector uninjected.
void run_with_stall(int num_threads, const std::function<void(int)>& body,
                    fault::RtInjector& injector, int victim,
                    std::uint64_t stall_after,
                    const std::function<void()>& while_stalled,
                    obs::Tracer* tracer = nullptr,
                    fault::StallPoint point = fault::StallPoint::kAccess);

// Cooperative stop flag + per-thread op counters for throughput runs:
// threads loop `while (!stop)` calling the operation under test; the main
// thread sleeps for the measurement window and then raises stop.
class ThroughputRun {
 public:
  explicit ThroughputRun(int num_threads);

  // body(pid) performs ONE operation; returns total ops/sec and fills
  // per-thread op counts.
  double run(std::chrono::milliseconds window,
             const std::function<void(int)>& body);

  // Count-based variant: every thread performs exactly `ops_per_thread`
  // operations, so every run does the same work whatever the op rate, and
  // a structure whose memory grows per operation (the polylog queue's
  // blocks, Figure 4's entries) allocates a bound known up front. Returns
  // total ops/sec over the wall time of the slowest thread.
  double run_ops(std::uint64_t ops_per_thread,
                 const std::function<void(int)>& body);

  const std::vector<std::uint64_t>& ops_per_thread() const { return ops_; }

  // Publishes the last run's per-thread op counts as gauges
  // `<prefix>.ops.p<pid>` plus `<prefix>.ops_total` into `registry`.
  void export_metrics(obs::Registry& registry,
                      const std::string& prefix) const;

 private:
  int n_;
  std::vector<std::uint64_t> ops_;
};

}  // namespace apram::rt
