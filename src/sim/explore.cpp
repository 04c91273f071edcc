#include "sim/explore.hpp"

#include "util/assert.hpp"

namespace apram::sim {

namespace {

struct Explorer {
  const ExecutionFactory& factory;
  const std::function<void(Execution&, const std::vector<int>&)>& check;
  std::uint64_t max_executions;
  ExploreStats stats;
  std::vector<int> prefix;

  void dfs() {
    // Rebuild the execution at this node (deterministic replay). Divergent
    // entries are skipped: DFS prefixes are extended speculatively and may
    // legitimately overrun a process's completion point.
    auto exec = replay(factory, prefix, FixedScheduler::Divergence::kSkip);
    World& w = exec->world();
    stats.max_depth = std::max(stats.max_depth,
                               static_cast<std::uint64_t>(prefix.size()));
    if (w.all_done()) {
      ++stats.executions;
      APRAM_CHECK_MSG(stats.executions <= max_executions,
                      "explore_all_schedules exceeded max_executions; "
                      "shrink the program under test");
      check(*exec, prefix);
      return;
    }
    for (int pid = 0; pid < w.num_procs(); ++pid) {
      if (!w.runnable(pid)) continue;
      prefix.push_back(pid);
      dfs();
      prefix.pop_back();
    }
  }
};

}  // namespace

ExploreStats explore_all_schedules(
    const ExecutionFactory& factory,
    const std::function<void(Execution&, const std::vector<int>&)>& check,
    std::uint64_t max_executions) {
  Explorer ex{factory, check, max_executions, {}, {}};
  ex.dfs();
  return ex.stats;
}

}  // namespace apram::sim
