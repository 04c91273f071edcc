// apram::fault — wait-freedom certification campaigns.
//
// certify_wait_freedom() runs an algorithm (packaged as a deterministic
// sim::ExecutionFactory) under a campaign of seeded adversaries: for each
// schedule i, seed base_seed+i derives a RandomScheduler (with random
// stickiness) and a random FaultPlan (crashes/stalls/bursts). The plan's
// crashes are armed on the World (World::schedule_crash semantics) and a
// Nemesis imposes its stalls and bursts over the RandomScheduler. Every run
// must
//
//   (1) complete — every non-crashed process finishes within max_steps
//       grants (wait-freedom: bounded own-steps under every adversary), and
//   (2) satisfy the caller's Judge — typically a per-process step bound
//       read from World::counts, e.g. Scan ≤ n²−1 reads + n+1 writes (§6.2)
//       or the agreement bound (2n+1)·log2(Δ/ε) + O(n) (Theorem 5).
//
// Violations are recorded with the full interleaving (captured by a
// RecordingScheduler around the Nemesis) and — when artifact_dir is set —
// written as an annotated replay artifact plus a metrics JSON dump that
// carries the per-pid `cert.{reads,writes}.p<pid>` counters.
// replay_artifact() re-executes an artifact strictly (Divergence::kFail),
// reproducing the violating run step-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/nemesis.hpp"
#include "obs/metrics.hpp"
#include "sim/replay.hpp"

namespace apram::fault {

// Per-pid bound on an execution's accesses, checked against
// World::counts(pid). The canonical reads/writes triple lives in obs (see
// obs::AccessCounts); this is the historical name for it.
using StepBound = obs::AccessCounts;

// Inspects a finished campaign execution; returns "" when the property
// holds, else a one-line description of the violation.
using Judge = std::function<std::string(sim::Execution&)>;

struct CampaignOptions {
  int schedules = 1000;
  std::uint64_t base_seed = 1;
  double max_stickiness = 0.9;  // per-run stickiness in [0, max_stickiness)
  PlanOptions plan;
  std::uint64_t max_steps = 1'000'000;  // per-run grant budget
  std::string artifact_dir;  // "" disables artifact emission
};

struct Violation {
  std::uint64_t seed = 0;
  std::string what;
  std::vector<int> schedule;   // the full recorded interleaving
  std::string artifact_path;   // "" when artifact emission is disabled
  std::string flight_path;     // flight-recorder metrics dump (obs/flight.hpp)
};

struct CampaignResult {
  int schedules_run = 0;
  std::uint64_t crashes_fired = 0;  // plan victims crashed by the run's end
  std::uint64_t stall_deflections = 0;
  std::uint64_t burst_grants = 0;
  std::vector<Violation> violations;

  bool certified() const { return schedules_run > 0 && violations.empty(); }
};

// Judge asserting counts(pid) ≤ bounds[pid] for every pid with a bound
// (crashed processes took fewer steps, so the bound applies uniformly).
Judge step_bound_judge(std::vector<StepBound> bounds);

CampaignResult certify_wait_freedom(const sim::ExecutionFactory& factory,
                                    const Judge& judge,
                                    const CampaignOptions& opts);

// Strict replay of a campaign artifact's schedule on a fresh execution.
std::unique_ptr<sim::Execution> replay_artifact(
    const sim::ExecutionFactory& factory, const std::string& path);

}  // namespace apram::fault
