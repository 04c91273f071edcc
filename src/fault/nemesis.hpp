// apram::fault — nemesis-style fault campaigns for the simulator.
//
// Wait-freedom quantifies over EVERY adversary, including ones that crash,
// starve, and burst-schedule processes. A seeded FaultPlan describes all
// three:
//
//   * crashes — victim-keyed World::CrashPoints: {pid, at_access} halts pid
//     before its (at_access+1)-th own access, wherever the scheduler put
//     that access in the interleaving. The World fires them: arm them with
//     World::schedule_crash or Options::crashes before the run.
//   * stalls  — starvation windows [from_step, from_step+duration) in
//     global steps: while active, picks of the stalled pid are deflected to
//     some other runnable process. A stall never deadlocks the run: if
//     every runnable process is stalled, the stall yields (an adversary
//     that blocks everyone forever just ends the execution, which proves
//     nothing about step bounds).
//   * bursts  — windows in which one pid is scheduled exclusively,
//     modelling the bursty interleavings that break non-wait-free code.
//
// A Nemesis is the scheduler combinator that imposes a plan's stalls and
// bursts over any inner scheduler. It only chooses; it never crashes. A run
// is a pure function of (inner scheduler, plan): exactly reproducible from
// the campaign seed, and a RecordingScheduler wrapped around the Nemesis
// captures the full interleaving as a replay artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram::fault {

struct StallFault {
  int pid = 0;
  std::uint64_t from_step = 0;  // global step, inclusive
  std::uint64_t duration = 1;
};

struct BurstFault {
  int pid = 0;
  std::uint64_t from_step = 0;  // global step, inclusive
  std::uint64_t duration = 1;
};

struct FaultPlan {
  std::vector<sim::World::CrashPoint> crashes;
  std::vector<StallFault> stalls;
  std::vector<BurstFault> bursts;

  bool empty() const {
    return crashes.empty() && stalls.empty() && bursts.empty();
  }
  // One line, human-readable — written into replay-artifact comments.
  std::string describe() const;
};

// Knobs for random_plan(). Horizons are in the relevant unit: crash
// triggers count victim accesses, stall/burst windows count global steps.
struct PlanOptions {
  int max_crashes = 1;
  int max_stalls = 2;
  int max_bursts = 2;
  std::uint64_t crash_horizon = 64;  // at_access drawn from [0, crash_horizon)
  std::uint64_t step_horizon = 256;  // windows start in [0, step_horizon)
  std::uint64_t max_window = 64;     // window duration in [1, max_window]
  std::vector<int> never_crash;      // pids exempt from crash faults
};

// Draws a plan from `rng`. At most num_procs-1 distinct pids are crashed, so
// at least one process always survives to be measured.
FaultPlan random_plan(Rng& rng, int num_procs, const PlanOptions& opts);

// Imposes `plan`'s stalls and bursts; `plan.crashes` is ignored here.
class Nemesis final : public sim::Scheduler {
 public:
  Nemesis(sim::Scheduler& inner, FaultPlan plan);

  int pick(const sim::World& w) override;

  // Campaign accounting (summed by the certifier).
  std::uint64_t stall_deflections() const { return stall_deflections_; }
  std::uint64_t burst_grants() const { return burst_grants_; }

 private:
  bool stalled(int pid, std::uint64_t step) const;

  sim::Scheduler* inner_;
  FaultPlan plan_;
  std::uint64_t stall_deflections_ = 0;
  std::uint64_t burst_grants_ = 0;
  int rr_cursor_ = 0;  // deflection fallback position
};

}  // namespace apram::fault
