#include "fault/nemesis.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace apram::fault {

std::string FaultPlan::describe() const {
  std::string s = "plan:";
  if (empty()) return s + " (none)";
  for (const sim::World::CrashPoint& c : crashes) {
    s += " crash(p" + std::to_string(c.pid) + "@" +
         std::to_string(c.at_access) + ")";
  }
  for (const StallFault& f : stalls) {
    s += " stall(p" + std::to_string(f.pid) + "," +
         std::to_string(f.from_step) + "+" + std::to_string(f.duration) + ")";
  }
  for (const BurstFault& b : bursts) {
    s += " burst(p" + std::to_string(b.pid) + "," +
         std::to_string(b.from_step) + "+" + std::to_string(b.duration) + ")";
  }
  return s;
}

FaultPlan random_plan(Rng& rng, int num_procs, const PlanOptions& opts) {
  APRAM_CHECK(num_procs >= 1);
  APRAM_CHECK(opts.crash_horizon > 0 && opts.step_horizon > 0 &&
              opts.max_window > 0);
  FaultPlan plan;

  // Crash victims: distinct pids, never from never_crash, and never ALL of
  // them — wait-freedom is measured on survivors, so keep at least one.
  std::vector<int> eligible;
  for (int pid = 0; pid < num_procs; ++pid) {
    if (std::find(opts.never_crash.begin(), opts.never_crash.end(), pid) ==
        opts.never_crash.end()) {
      eligible.push_back(pid);
    }
  }
  std::uint64_t budget = static_cast<std::uint64_t>(
      std::min<std::size_t>(static_cast<std::size_t>(opts.max_crashes),
                            eligible.size()));
  if (opts.never_crash.empty() && budget >= static_cast<std::uint64_t>(num_procs)) {
    budget = static_cast<std::uint64_t>(num_procs) - 1;
  }
  if (budget > 0) {
    const std::uint64_t n_crashes = rng.below(budget + 1);
    for (std::uint64_t i = 0; i < n_crashes; ++i) {
      const std::size_t j = rng.below(eligible.size());
      plan.crashes.push_back({eligible[j], rng.below(opts.crash_horizon)});
      eligible.erase(eligible.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }

  const std::uint64_t n_stalls =
      rng.below(static_cast<std::uint64_t>(opts.max_stalls) + 1);
  for (std::uint64_t i = 0; i < n_stalls; ++i) {
    plan.stalls.push_back(
        StallFault{static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(num_procs))),
                   rng.below(opts.step_horizon),
                   1 + rng.below(opts.max_window)});
  }

  const std::uint64_t n_bursts =
      rng.below(static_cast<std::uint64_t>(opts.max_bursts) + 1);
  for (std::uint64_t i = 0; i < n_bursts; ++i) {
    plan.bursts.push_back(
        BurstFault{static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(num_procs))),
                   rng.below(opts.step_horizon),
                   1 + rng.below(opts.max_window)});
  }
  return plan;
}

Nemesis::Nemesis(sim::Scheduler& inner, FaultPlan plan)
    : inner_(&inner), plan_(std::move(plan)) {}

bool Nemesis::stalled(int pid, std::uint64_t step) const {
  for (const StallFault& f : plan_.stalls) {
    if (f.pid == pid && step >= f.from_step &&
        step < f.from_step + f.duration) {
      return true;
    }
  }
  return false;
}

int Nemesis::pick(const sim::World& w) {
  const std::uint64_t step = w.global_step();

  // 1) An active burst window pre-empts the inner scheduler entirely.
  for (const BurstFault& b : plan_.bursts) {
    if (step >= b.from_step && step < b.from_step + b.duration &&
        w.runnable(b.pid) && !stalled(b.pid, step)) {
      ++burst_grants_;
      return b.pid;
    }
  }

  // 2) Delegate; deflect picks of stalled pids onto some other runnable
  //    process (round-robin so the deflection target rotates).
  const int pid = inner_->pick(w);
  if (pid < 0 || !stalled(pid, step)) return pid;
  const int n = w.num_procs();
  for (int i = 0; i < n; ++i) {
    const int cand = (rr_cursor_ + i) % n;
    if (cand != pid && w.runnable(cand) && !stalled(cand, step)) {
      rr_cursor_ = (cand + 1) % n;
      ++stall_deflections_;
      return cand;
    }
  }
  // Every runnable process is inside a stall window: the stall yields (see
  // header — an adversary that freezes everyone ends the run, proving
  // nothing about step bounds).
  return pid;
}

}  // namespace apram::fault
