#include "sim/replay.hpp"

namespace apram::sim {

std::unique_ptr<Execution> replay(const ExecutionFactory& factory,
                                  const std::vector<int>& prefix,
                                  FixedScheduler::Divergence divergence) {
  auto exec = factory();
  APRAM_CHECK(exec != nullptr);
  FixedScheduler sched(prefix, divergence);
  exec->world().run(sched);
  return exec;
}

std::unique_ptr<Execution> replay_then_solo(
    const ExecutionFactory& factory, const std::vector<int>& prefix, int pid,
    std::uint64_t solo_cap, FixedScheduler::Divergence divergence) {
  auto exec = replay(factory, prefix, divergence);
  exec->world().run_solo(pid, solo_cap);
  return exec;
}

}  // namespace apram::sim
