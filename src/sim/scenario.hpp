// Scenario suite — production-shaped workloads for huge simulated Worlds.
//
// The unit tests pin exact interleavings at n ≤ 16; the scenario driver
// exercises the opposite regime: 10⁵–10⁶ processes, millions of grants, and
// the traffic shapes a real deployment sees —
//
//   * Zipf-skewed writers: every process performs `ops_per_process` writes
//     to registers drawn from a Zipf(s) distribution, so a handful of hot
//     registers absorb most of the traffic (s = 0 degenerates to uniform);
//   * bursty open-loop arrivals: processes are spawned in bursts of
//     `burst_size` every `burst_every` grants, on a clock that does NOT
//     wait for existing work to drain (arrivals are open-loop, like user
//     traffic);
//   * rolling crash/recovery churn: every `churn_every` grants,
//     `churn_crashes` random live processes are crashed and (optionally)
//     revived as fresh incarnations;
//   * replayed adversary schedules: a recorded scenario run replays
//     step-identically on a fresh World (run_scenario_recorded /
//     replay_scenario), which is how adversarial schedules found at scale
//     are preserved and re-examined.
//
// Every write is wrapped in an obs kScenarioOp span (free when no tracer is
// attached), so a traced run lets `apram-trace check --bound scenario_op=1`
// re-derive the per-op cost at n far beyond the unit tests. The driver is
// deterministic given (options, scheduler): all randomness — register
// choice, churn victims, body seeds — derives from ScenarioOptions::seed
// and the scheduler's pick sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram::sim {

// Zipf(s) sampler over {0, …, n−1}: P(k) ∝ 1/(k+1)^s, via a precomputed CDF
// and binary search. s = 0 is the uniform distribution.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  int sample(Rng& rng) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

struct ScenarioOptions {
  int num_procs = 1000;
  int num_registers = 256;      // multi-writer targets of the Zipf choice
  std::uint64_t total_steps = 100'000;  // scenario clock, in grants
  int ops_per_process = 16;     // writes per process incarnation
  double zipf_s = 1.0;          // register skew; 0 = uniform
  std::uint64_t seed = 1;       // body seeds + churn victim choice

  // Open-loop bursty arrivals: burst_size spawns every burst_every grants
  // until all num_procs have arrived. 0/0 (default) spawns everyone up
  // front.
  std::uint64_t burst_every = 0;
  int burst_size = 0;

  // Rolling churn: every churn_every grants, crash churn_crashes random
  // live processes; with `recover`, each victim is revived immediately as
  // a new incarnation. 0/0 disables churn.
  std::uint64_t churn_every = 0;
  int churn_crashes = 0;
  bool recover = true;
};

struct ScenarioResult {
  std::uint64_t grants = 0;    // scheduler grants actually performed
  std::uint64_t arrived = 0;   // spawns (bursts), excluding revivals
  std::uint64_t crashes = 0;   // churn crashes injected
  std::uint64_t revived = 0;   // churn recoveries
  std::uint64_t completed = 0; // pids in the done state at the end
  bool all_done = false;
  StepCounts accesses;         // World::total_counts() at the end

  // Same execution shape — what a step-identical replay must reproduce.
  bool same_execution(const ScenarioResult& o) const {
    return grants == o.grants && arrived == o.arrived &&
           crashes == o.crashes && revived == o.revived &&
           completed == o.completed && all_done == o.all_done &&
           accesses.reads == o.accesses.reads &&
           accesses.writes == o.accesses.writes;
  }
};

// World::Options tuned for scenario scale: lazy frames (a burst of 10⁵
// arrivals costs closures, not coroutine frames) and a step budget that
// covers opts.total_steps. Pass to the World constructor alongside any
// tracer.
World::Options scenario_world_options(const ScenarioOptions& opts);

// Drives `opts` on a caller-built World (num_procs must match) under
// `sched`. Creates the scenario's registers in `w`; call on a fresh World.
ScenarioResult run_scenario(World& w, Scheduler& sched,
                            const ScenarioOptions& opts);

// Runs the scenario on an internal World under a seeded RandomScheduler
// wrapped in a RecordingScheduler; the pick sequence lands in *picks_out
// (if non-null) for replay_scenario.
ScenarioResult run_scenario_recorded(const ScenarioOptions& opts,
                                     std::uint64_t sched_seed,
                                     double stickiness,
                                     std::vector<int>* picks_out);

// Replays a recorded pick sequence on a fresh World with strict divergence
// checking (FixedScheduler kFail): aborts if the execution drifts from the
// recorded one, returns a result that must satisfy same_execution().
ScenarioResult replay_scenario(const ScenarioOptions& opts,
                               const std::vector<int>& picks);

}  // namespace apram::sim
