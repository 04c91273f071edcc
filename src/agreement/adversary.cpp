#include "agreement/adversary.hpp"

#include <cmath>

#include "sim/scheduler.hpp"

namespace apram {

namespace {

// Shared shape of the two concrete executions: build a world, run
// input-then-output per process, capture the outputs.
template <class Object>
class TwoProcExecution final : public AgreementExecution {
 public:
  TwoProcExecution(double epsilon, double x0, double x1)
      : world_(2), object_(world_, 2, epsilon), outs_(2) {
    const double inputs[2] = {x0, x1};
    for (int pid = 0; pid < 2; ++pid) {
      const double x = inputs[pid];
      world_.spawn(pid, [this, pid, x](sim::Context ctx) -> sim::ProcessTask {
        outs_[static_cast<std::size_t>(pid)] =
            co_await object_.decide(ctx, x);
      });
    }
  }

  sim::World& world() override { return world_; }
  const std::optional<double>& out(int pid) const override {
    return outs_[static_cast<std::size_t>(pid)];
  }

 private:
  sim::World world_;
  Object object_;
  std::vector<std::optional<double>> outs_;
};

// Preference oracle: the value `pid` returns when running alone after
// `prefix` (Lemma 6's definition, computed by replay).
//
// The FixedSchedulers below stay in the default lenient (Divergence::kSkip)
// mode on purpose: gap_for() extends prefixes speculatively, so a prefix may
// carry steps for a process that completes earlier on this re-execution.
double preference(const AgreementFactory& factory,
                  const std::vector<int>& prefix, int pid) {
  auto exec = factory();
  sim::FixedScheduler sched(prefix);
  exec->world().run(sched);
  exec->world().run_solo(pid);
  APRAM_CHECK(exec->out(pid).has_value());
  return *exec->out(pid);
}

bool done_after(const AgreementFactory& factory,
                const std::vector<int>& prefix, int pid) {
  auto exec = factory();
  sim::FixedScheduler sched(prefix);
  exec->world().run(sched);
  return exec->world().done(pid);
}

// Extends `prefix` with steps of `actor` for as long as those steps leave
// `other`'s preference unchanged. Returns false if `actor` completed without
// ever threatening `other`'s preference (strategy over), true if `actor` is
// now one step away from changing it.
bool advance_until_threatening(const AgreementFactory& factory,
                               std::vector<int>& prefix, int actor,
                               int other) {
  for (;;) {
    if (done_after(factory, prefix, actor)) return false;
    const double before = preference(factory, prefix, other);
    prefix.push_back(actor);
    const double after = preference(factory, prefix, other);
    if (after != before) {
      prefix.pop_back();  // stop *just before* the preference-changing step
      return true;
    }
  }
}

}  // namespace

AgreementFactory figure2_agreement_factory(double epsilon, double x0,
                                           double x1) {
  return [epsilon, x0, x1] {
    return std::make_unique<TwoProcExecution<ApproxAgreementSim>>(epsilon, x0,
                                                                  x1);
  };
}

AgreementFactory midpoint_agreement_factory(double epsilon, double x0,
                                            double x1) {
  return [epsilon, x0, x1] {
    return std::make_unique<TwoProcExecution<MidpointAgreementSim>>(epsilon,
                                                                    x0, x1);
  };
}

AdversaryResult run_lower_bound_adversary(const AgreementFactory& factory,
                                          double epsilon,
                                          int max_iterations) {
  APRAM_CHECK(epsilon > 0.0);

  AdversaryResult result;
  std::vector<int>& prefix = result.schedule;
  bool gap_wide = true;

  auto recount = [&] {
    result.total_steps[0] = result.total_steps[1] = 0;
    for (int pid : prefix) ++result.total_steps[pid];
  };
  auto note_gap = [&](double gap) {
    recount();
    result.final_gap = gap;
    if (gap_wide && gap < epsilon) {
      gap_wide = false;
      for (int pid = 0; pid < 2; ++pid) {
        result.steps_while_gap_wide[pid] = result.total_steps[pid];
      }
    }
  };

  note_gap(std::fabs(preference(factory, prefix, 0) -
                     preference(factory, prefix, 1)));

  for (int iter = 0; iter < max_iterations; ++iter) {
    if (!advance_until_threatening(factory, prefix, 0, 1)) break;
    if (!advance_until_threatening(factory, prefix, 1, 0)) break;

    // Both processes are one step from changing the other's preference.
    // Evaluate the three schedules of Lemma 6 and commit the one keeping
    // the preferences farthest apart.
    auto gap_for = [&](std::initializer_list<int> steps) {
      std::vector<int> candidate = prefix;
      candidate.insert(candidate.end(), steps);
      return std::fabs(preference(factory, candidate, 0) -
                       preference(factory, candidate, 1));
    };
    const double gap_p = gap_for({0});     // P moves: Q's preference changes
    const double gap_q = gap_for({1});     // Q moves: P's preference changes
    const double gap_both = gap_for({0, 1});

    if (gap_wide) ++result.iterations;

    double gap = 0.0;
    if (gap_p >= gap_q && gap_p >= gap_both) {
      prefix.push_back(0);
      gap = gap_p;
    } else if (gap_q >= gap_both) {
      prefix.push_back(1);
      gap = gap_q;
    } else {
      prefix.push_back(0);
      prefix.push_back(1);
      gap = gap_both;
    }
    note_gap(gap);
  }
  recount();
  if (gap_wide) {
    for (int pid = 0; pid < 2; ++pid) {
      result.steps_while_gap_wide[pid] = result.total_steps[pid];
    }
  }

  // Drive the remaining execution to completion and record the outputs so
  // callers can verify the algorithm still met its specification.
  auto exec = factory();
  sim::FixedScheduler replay_sched(prefix);
  exec->world().run(replay_sched);
  sim::RoundRobinScheduler rr;
  exec->world().run(rr);
  for (int pid = 0; pid < 2; ++pid) {
    APRAM_CHECK(exec->out(pid).has_value());
    result.outputs[pid] = *exec->out(pid);
  }
  return result;
}

}  // namespace apram
