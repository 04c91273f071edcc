// Schedulers — the adversary's half of the asynchronous PRAM model.
//
// A Scheduler decides, before each atomic step, which runnable process moves
// next. The model places no fairness constraints on this choice; wait-free
// algorithms must terminate under *every* scheduler, including ones that
// stall other processes. The concrete schedulers here cover the executions
// the paper's proofs quantify over:
//
//   RoundRobinScheduler   — fair interleaving (the "synchronous-ish" case)
//   RandomScheduler       — seeded uniform interleavings, optionally biased
//   FixedScheduler        — replays an explicit schedule (determinism/replay)
//   RecordingScheduler    — wraps another scheduler and records its picks
//
// Schedulers only choose: pick() sees the World read-only. Crashes are the
// World's job (World::schedule_crash, Options::crashes), so a crash plan
// rides along under any scheduler stack, and a solo run is World::run_solo.
//
// All pick() implementations are O(1) amortized in the number of processes,
// riding the World's incrementally maintained runnable set — a World with
// 10⁶ processes pays the same per grant as one with 10. RoundRobin's pick
// ORDER is unchanged from the historical O(n) scan (first runnable pid at
// or after the cursor, wrapping), so recorded schedules and exploration
// results are bit-identical; RandomScheduler draws from the same uniform
// distribution but maps seeds to different sequences than the pre-SoA
// version (it samples the runnable set's dense index instead of rebuilding
// a sorted pid vector per pick).
//
// Programmable adversaries (e.g. the Lemma 6 lower-bound adversary) live
// with the algorithms they attack.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/world.hpp"
#include "util/rng.hpp"

namespace apram::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  // Returns the pid of a runnable process to grant the next step, or -1 to
  // stop the run.
  virtual int pick(const World& w) = 0;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  int pick(const World& w) override;

 private:
  int next_ = 0;
};

// Uniform random over runnable processes; with `stickiness` in (0,1), the
// previously scheduled process is rescheduled with that probability first,
// producing bursty interleavings that stress algorithms differently from
// pure uniform choice. The sticky pid is incarnation-checked: a pid that
// crashed (or finished) and was re-spawned since the last pick is a new
// process and never inherits the old one's burst.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed, double stickiness = 0.0)
      : rng_(seed), stickiness_(stickiness) {}

  int pick(const World& w) override;

 private:
  Rng rng_;
  double stickiness_;
  int last_ = -1;
  std::uint32_t last_epoch_ = 0;  // World::spawn_epoch at the sticky pick
};

// Replays a fixed pid sequence; once it is exhausted pick() returns -1, so
// run() stops. To finish a run after the prefix, run a RoundRobinScheduler.
//
// A scheduled pid that is not runnable (finished, crashed, out of range) is
// a *divergence*: the execution being driven no longer matches the one the
// schedule was recorded from. `divergence` selects the response:
//   kSkip — drop the entry and move on. Use for speculative prefix
//           extension (sim/explore, the Lemma 6 adversary), where schedules
//           legitimately overrun a process's completion point.
//   kFail — abort with the position, pid, and reason. Use for replay of
//           recorded schedules (sim/replay, campaign artifacts), where a
//           divergence means the artifact is corrupt or the program under
//           replay is not deterministic.
class FixedScheduler final : public Scheduler {
 public:
  enum class Divergence { kSkip, kFail };

  explicit FixedScheduler(std::vector<int> schedule,
                          Divergence divergence = Divergence::kSkip)
      : schedule_(std::move(schedule)), divergence_(divergence) {}

  int pick(const World& w) override;

 private:
  std::vector<int> schedule_;
  std::size_t pos_ = 0;
  Divergence divergence_;
};

class RecordingScheduler final : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler& inner) : inner_(&inner) {}

  int pick(const World& w) override;

  const std::vector<int>& picks() const { return picks_; }

 private:
  Scheduler* inner_;
  std::vector<int> picks_;
};

}  // namespace apram::sim
