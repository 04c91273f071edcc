// Deterministic replay.
//
// Simulator executions are pure functions of (program, schedule). That makes
// "what would process P return if it ran alone from here?" — the preference
// oracle at the heart of the Lemma 6 adversary — computable without cloning
// coroutine state: rebuild the world from its factory, replay the recorded
// schedule prefix, then run P solo.
//
// An Execution bundles a World with whatever output slots the program under
// test exposes; the factory must produce byte-identical behaviour on every
// call (seeded RNGs only, no wall-clock or address-dependent logic).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/world.hpp"

namespace apram::sim {

class Execution {
 public:
  virtual ~Execution() = default;
  virtual World& world() = 0;
};

using ExecutionFactory = std::function<std::unique_ptr<Execution>()>;

// Replays `prefix` on a fresh execution and returns it, positioned right
// after the prefix. `divergence` says what a prefix entry whose pid is not
// runnable at that point does (see FixedScheduler). kFail is the default: a
// recorded schedule that stops matching its execution means a corrupt or
// truncated artifact or a non-deterministic factory, and drifting past the
// divergence would silently replay some OTHER execution. kSkip is for
// callers that extend prefixes speculatively past completion points
// (sim/explore's DFS, the Lemma 6 adversary).
std::unique_ptr<Execution> replay(
    const ExecutionFactory& factory, const std::vector<int>& prefix,
    FixedScheduler::Divergence divergence = FixedScheduler::Divergence::kFail);

// Replays `prefix`, then runs `pid` alone until its process completes.
// Aborts if the solo run exceeds `solo_cap` steps (a wait-freedom failure).
std::unique_ptr<Execution> replay_then_solo(
    const ExecutionFactory& factory, const std::vector<int>& prefix, int pid,
    std::uint64_t solo_cap = World::kDefaultMaxSteps,
    FixedScheduler::Divergence divergence = FixedScheduler::Divergence::kFail);

}  // namespace apram::sim
