// apram::fault — seeded fault injection for real-thread (rt) registers.
//
// The sim side can interleave accesses arbitrarily; real threads mostly run
// in lockstep unless something perturbs them. An RtInjector is that
// perturbation: attached to rt registers (attach_injector), it fires at
// every access boundary of every harness thread and, driven by a per-thread
// seeded Rng, injects
//
//   * yields  — sched_yield with probability yield_prob, shaking the
//     interleaving without changing timing scale, and
//   * sleeps  — a short random sleep (≤ sleep_max_us) with probability
//     sleep_prob, opening wide windows in which the other threads run many
//     operations against the sleeper's half-finished state.
//
// It also implements a HARD STALL: arm_stall(pid, after) parks pid's thread
// on its (after+1)-th access — after exactly `after` accesses, mirroring the
// sim's victim-keyed crash point — until release_stall(). While the victim
// is parked, the other threads (and the main thread) keep operating; the
// harness's run_with_stall() uses this to generate histories with a genuine
// pending operation for the linearizability checker. A stalled thread is a
// crash the scheduler cannot distinguish from slowness — exactly the failure
// model wait-freedom is about.
//
// The stall can be aimed at either of two points (StallPoint):
//   * kAccess — the top of the access, before it takes effect (the default,
//     and the model's canonical adversary move), or
//   * kHold   — inside an arena register's read, between the reader's
//     version acquire and its dereference (registers call on_hold() there).
//     A victim parked at kHold holds a version reference indefinitely while
//     every other thread keeps writing: the precise window in which a broken
//     reclamation scheme would free memory out from under a reader. on_hold
//     never perturbs probabilistically and never counts as an access — it is
//     purely the hard-stall hook, so access accounting stays exact. Inline
//     (word and double-word) registers have no version to hold and never
//     call it: aim kHold tests at arena-backed payloads.
//
// Threads without a model pid (obs::thread_pid() < 0, e.g. the main thread
// probing a register mid-stall) and threads with pid >= kNumPids pass
// through uninjected.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "util/rng.hpp"

namespace apram::fault {

struct RtInjectOptions {
  double yield_prob = 0.0;
  double sleep_prob = 0.0;
  int sleep_max_us = 50;  // sleep duration drawn from [1, sleep_max_us]
  std::uint64_t seed = 1;
};

// Where an armed hard stall parks its victim.
enum class StallPoint : int {
  kAccess = 0,  // top of the access, before it takes effect
  kHold = 1,    // between an arena reader's acquire and its dereference
};

class RtInjector {
 public:
  static constexpr int kNumPids = 64;

  explicit RtInjector(const RtInjectOptions& opts);
  RtInjector(const RtInjector&) = delete;
  RtInjector& operator=(const RtInjector&) = delete;

  // Called by instrumented registers at the top of every access. Wait-free
  // for every thread except an armed kAccess stall victim, which blocks
  // here until release_stall().
  void on_access();

  // Called by arena registers between a reader's version acquire and its
  // dereference. Parks an armed kHold victim (holding its version!) until
  // release_stall(); a no-op for everyone else. Never counts as an access,
  // never perturbs probabilistically.
  void on_hold();

  // Parks `pid`'s thread at `point` once it has performed `after` accesses
  // (so for kAccess, the victim's (after+1)-th access does not happen until
  // release_stall(); for kHold, the victim parks inside its first read at or
  // past that threshold, holding the acquired version). One stall may be
  // armed at a time; re-arming requires a release first.
  void arm_stall(int pid, std::uint64_t after,
                 StallPoint point = StallPoint::kAccess);
  void release_stall();
  bool stall_engaged() const {
    return stall_engaged_.load(std::memory_order_acquire);
  }

  // Accounting (exact at quiescence).
  std::uint64_t accesses(int pid) const;
  std::uint64_t yields_injected() const {
    return yields_.load(std::memory_order_relaxed);
  }
  std::uint64_t sleeps_injected() const {
    return sleeps_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) PerThread {
    Rng rng;
    std::atomic<std::uint64_t> accesses{0};
  };

  // Claims the armed stall for the calling victim and parks it until
  // release_stall(); returns at once if another access claimed it first.
  void park();

  RtInjectOptions opts_;
  std::array<PerThread, kNumPids> per_thread_;

  // Stall plumbing. armed_ hands exactly one thread (the victim, via CAS)
  // into the parked state; stall_engaged_ tells the orchestrating thread the
  // victim has arrived; stall_release_ lets it out.
  std::atomic<bool> stall_armed_{false};
  std::atomic<int> stall_pid_{-1};
  std::atomic<std::uint64_t> stall_after_{0};
  std::atomic<StallPoint> stall_point_{StallPoint::kAccess};
  std::atomic<bool> stall_engaged_{false};
  std::atomic<bool> stall_release_{false};

  std::atomic<std::uint64_t> yields_{0};
  std::atomic<std::uint64_t> sleeps_{0};
};

}  // namespace apram::fault
