#include "sim/scheduler.hpp"

#include <string>

namespace apram::sim {

int RoundRobinScheduler::pick(const World& w) {
  // First runnable pid at or after the cursor, wrapping once — the same
  // order as the historical linear scan, via the runnable set's O(1)
  // successor query.
  int pid = w.next_runnable_at_or_after(next_);
  if (pid < 0 && next_ > 0) pid = w.next_runnable_at_or_after(0);
  if (pid < 0) return -1;
  next_ = (pid + 1) % w.num_procs();
  return pid;
}

int RandomScheduler::pick(const World& w) {
  // The sticky shortcut only applies to the same incarnation that was
  // granted last time: a crash + revive (or done + spawn) bumps the
  // World's spawn epoch and the new process starts with a fresh draw.
  if (stickiness_ > 0.0 && last_ >= 0 && w.runnable(last_) &&
      w.spawn_epoch(last_) == last_epoch_ && rng_.chance(stickiness_)) {
    return last_;
  }
  const int n = w.num_runnable();
  if (n == 0) return -1;
  last_ = w.runnable_at(
      static_cast<int>(rng_.below(static_cast<std::uint64_t>(n))));
  last_epoch_ = w.spawn_epoch(last_);
  return last_;
}

int FixedScheduler::pick(const World& w) {
  while (pos_ < schedule_.size()) {
    const int pid = schedule_[pos_];
    ++pos_;
    if (pid >= 0 && pid < w.num_procs() && w.runnable(pid)) return pid;
    if (divergence_ == Divergence::kFail) {
      const char* why = (pid < 0 || pid >= w.num_procs()) ? "out of range"
                        : !w.spawned(pid)                 ? "never spawned"
                        : w.crashed(pid)                  ? "crashed"
                                                          : "already done";
      const std::string msg =
          "schedule diverged at position " + std::to_string(pos_ - 1) +
          ": pid " + std::to_string(pid) + " is not runnable (" + why +
          "); the schedule does not match this execution";
      APRAM_CHECK_MSG(false, msg.c_str());
    }
    // kSkip: a scheduled pid that already finished (or crashed) is dropped —
    // speculative prefixes may extend past a process's completion point.
  }
  return -1;
}

int RecordingScheduler::pick(const World& w) {
  const int pid = inner_->pick(w);
  if (pid >= 0) picks_.push_back(pid);
  return pid;
}

}  // namespace apram::sim
