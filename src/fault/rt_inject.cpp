#include "fault/rt_inject.hpp"

#include <chrono>
#include <thread>

#include "obs/rt_probe.hpp"
#include "util/assert.hpp"

namespace apram::fault {

RtInjector::RtInjector(const RtInjectOptions& opts) : opts_(opts) {
  APRAM_CHECK(opts_.sleep_max_us >= 1);
  std::uint64_t sm = opts_.seed;
  for (PerThread& t : per_thread_) t.rng.reseed(splitmix64(sm));
}

void RtInjector::on_access() {
  const int pid = obs::thread_pid();
  if (pid < 0 || pid >= kNumPids) return;
  PerThread& me = per_thread_[static_cast<std::size_t>(pid)];
  const std::uint64_t k =
      me.accesses.fetch_add(1, std::memory_order_relaxed) + 1;

  // Hard stall: park before performing the (after+1)-th access.
  if (stall_armed_.load(std::memory_order_acquire) &&
      stall_point_.load(std::memory_order_relaxed) == StallPoint::kAccess &&
      stall_pid_.load(std::memory_order_relaxed) == pid &&
      k > stall_after_.load(std::memory_order_relaxed)) {
    park();
  }

  if (opts_.sleep_prob > 0.0 && me.rng.chance(opts_.sleep_prob)) {
    sleeps_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(
        1 + me.rng.below(static_cast<std::uint64_t>(opts_.sleep_max_us))));
  } else if (opts_.yield_prob > 0.0 && me.rng.chance(opts_.yield_prob)) {
    yields_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
}

void RtInjector::on_hold() {
  // The hold window exists only in an arena register's read and CAS; this
  // hook fires with the caller's version acquired and not yet dereferenced.
  // It intentionally skips the access counter and the probabilistic
  // perturbation — on_access at the top of the same operation already did
  // both — so it is free for everyone but an armed kHold victim.
  if (!stall_armed_.load(std::memory_order_acquire)) return;
  if (stall_point_.load(std::memory_order_relaxed) != StallPoint::kHold) {
    return;
  }
  const int pid = obs::thread_pid();
  if (pid < 0 || pid >= kNumPids ||
      stall_pid_.load(std::memory_order_relaxed) != pid) {
    return;
  }
  const std::uint64_t k = per_thread_[static_cast<std::size_t>(pid)]
                              .accesses.load(std::memory_order_relaxed);
  if (k <= stall_after_.load(std::memory_order_relaxed)) return;
  park();
}

void RtInjector::park() {
  // The CAS on stall_armed_ admits exactly one parking, even if the victim
  // races through several accesses past the threshold.
  bool expected = true;
  if (stall_armed_.compare_exchange_strong(expected, false,
                                           std::memory_order_acq_rel)) {
    stall_engaged_.store(true, std::memory_order_release);
    while (!stall_release_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
}

void RtInjector::arm_stall(int pid, std::uint64_t after, StallPoint point) {
  APRAM_CHECK(pid >= 0 && pid < kNumPids);
  APRAM_CHECK_MSG(!stall_armed_.load(std::memory_order_acquire) &&
                      !stall_engaged_.load(std::memory_order_acquire),
                  "a stall is already armed or engaged");
  stall_release_.store(false, std::memory_order_relaxed);
  stall_engaged_.store(false, std::memory_order_relaxed);
  stall_pid_.store(pid, std::memory_order_relaxed);
  stall_after_.store(after, std::memory_order_relaxed);
  stall_point_.store(point, std::memory_order_relaxed);
  stall_armed_.store(true, std::memory_order_release);
}

void RtInjector::release_stall() {
  // Disarm first so a victim that has not parked yet cannot park after the
  // release (arm raced with a fast victim that finished its program).
  stall_armed_.store(false, std::memory_order_release);
  stall_release_.store(true, std::memory_order_release);
  stall_engaged_.store(false, std::memory_order_release);
}

std::uint64_t RtInjector::accesses(int pid) const {
  APRAM_CHECK(pid >= 0 && pid < kNumPids);
  return per_thread_[static_cast<std::size_t>(pid)].accesses.load(
      std::memory_order_relaxed);
}

}  // namespace apram::fault
