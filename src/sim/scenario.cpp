#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

namespace apram::sim {

ZipfSampler::ZipfSampler(int n, double s) {
  APRAM_CHECK(n > 0);
  APRAM_CHECK(s >= 0.0);
  cdf_.resize(static_cast<std::size_t>(n));
  double acc = 0.0;
  for (int k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[static_cast<std::size_t>(k)] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding at the top end
}

int ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
}

namespace {

constexpr std::uint64_t kNever = ~static_cast<std::uint64_t>(0);

// Shared read-only scenario state, captured by every process body. Owned by
// shared_ptr because lazily spawned bodies can outlive the run_scenario
// call that created them.
struct Shared {
  Shared(int num_regs, double zipf_s, int ops)
      : zipf(num_regs, zipf_s), ops_per_process(ops) {}

  ZipfSampler zipf;
  int ops_per_process;
  std::vector<Register<std::uint64_t>*> regs;
};

World::ProcessFn make_zipf_writer(std::shared_ptr<const Shared> sh,
                                  std::uint64_t body_seed) {
  return [sh = std::move(sh), body_seed](Context ctx) -> ProcessTask {
    Rng rng(body_seed);
    for (int i = 0; i < sh->ops_per_process; ++i) {
      Register<std::uint64_t>& reg =
          *sh->regs[static_cast<std::size_t>(sh->zipf.sample(rng))];
      ctx.op_begin(obs::OpKind::kScenarioOp);
      co_await ctx.write(reg, rng.next());
      ctx.op_end(obs::OpKind::kScenarioOp);
    }
  };
}

std::uint64_t body_seed(std::uint64_t scenario_seed, std::uint64_t nonce) {
  std::uint64_t s = scenario_seed + 0x9e3779b97f4a7c15ULL * (nonce + 1);
  return splitmix64(s);
}

}  // namespace

World::Options scenario_world_options(const ScenarioOptions& opts) {
  World::Options w;
  w.lazy_spawn = true;
  w.max_steps = std::max<std::uint64_t>(World::kDefaultMaxSteps,
                                        opts.total_steps + 1);
  return w;
}

ScenarioResult run_scenario(World& w, Scheduler& sched,
                            const ScenarioOptions& opts) {
  APRAM_CHECK(opts.num_procs > 0);
  APRAM_CHECK_MSG(w.num_procs() >= opts.num_procs,
                  "scenario needs a World with at least num_procs processes");
  APRAM_CHECK(opts.ops_per_process >= 0);

  auto sh = std::make_shared<Shared>(opts.num_registers, opts.zipf_s,
                                     opts.ops_per_process);
  sh->regs.reserve(static_cast<std::size_t>(opts.num_registers));
  for (int i = 0; i < opts.num_registers; ++i) {
    sh->regs.push_back(&w.make_register<std::uint64_t>(
        "s.reg" + std::to_string(i), 0, kAnyWriter));
  }

  // All driver-side randomness (churn victims) comes from this stream; the
  // per-body streams are keyed by an arrival nonce. Both are functions of
  // opts.seed and the scheduler's pick sequence alone, which is what makes
  // a recorded scenario replayable.
  Rng drng(body_seed(opts.seed, 0xc4a5));
  std::uint64_t nonce = 0;
  int arrived = 0;
  ScenarioResult r;

  const auto arrive = [&](int k) {
    for (; k > 0 && arrived < opts.num_procs; --k) {
      w.spawn(arrived, make_zipf_writer(sh, body_seed(opts.seed, ++nonce)));
      ++arrived;
      ++r.arrived;
    }
  };
  const auto churn = [&] {
    for (int i = 0; i < opts.churn_crashes && w.num_runnable() > 0; ++i) {
      const int victim = w.runnable_at(static_cast<int>(
          drng.below(static_cast<std::uint64_t>(w.num_runnable()))));
      w.crash(victim);
      ++r.crashes;
      if (opts.recover) {
        w.revive(victim, make_zipf_writer(sh, body_seed(opts.seed, ++nonce)));
        ++r.revived;
      }
    }
  };

  const bool bursty = opts.burst_every > 0 && opts.burst_size > 0;
  arrive(bursty ? opts.burst_size : opts.num_procs);
  std::uint64_t next_burst = bursty && arrived < opts.num_procs
                                 ? opts.burst_every
                                 : kNever;
  const bool churny = opts.churn_every > 0 && opts.churn_crashes > 0;
  std::uint64_t next_churn = churny ? opts.churn_every : kNever;

  // The scenario clock counts grants while work exists and fast-forwards to
  // the next arrival/churn boundary when the World runs dry — arrivals are
  // open-loop, they do not wait for the previous burst to finish.
  std::uint64_t clock = 0;
  while (clock < opts.total_steps) {
    const std::uint64_t until = std::min(
        {opts.total_steps, next_burst, next_churn});
    if (!w.all_done() && until > clock) {
      r.grants += w.run_steps(sched, until - clock).steps_taken;
    }
    clock = until;
    bool boundary = false;
    if (clock == next_burst) {
      arrive(opts.burst_size);
      next_burst =
          arrived < opts.num_procs ? next_burst + opts.burst_every : kNever;
      boundary = true;
    }
    if (clock == next_churn) {
      churn();
      next_churn += opts.churn_every;
      boundary = true;
    }
    // Nothing runnable, nothing scheduled to arrive: the scenario is over.
    if (!boundary && w.all_done()) break;
  }

  for (int pid = 0; pid < opts.num_procs; ++pid) {
    if (w.done(pid)) ++r.completed;
  }
  r.all_done = w.all_done();
  r.accesses = w.total_counts();
  return r;
}

ScenarioResult run_scenario_recorded(const ScenarioOptions& opts,
                                     std::uint64_t sched_seed,
                                     double stickiness,
                                     std::vector<int>* picks_out) {
  World w(opts.num_procs, scenario_world_options(opts));
  RandomScheduler rnd(sched_seed, stickiness);
  RecordingScheduler rec(rnd);
  ScenarioResult r = run_scenario(w, rec, opts);
  if (picks_out != nullptr) *picks_out = rec.picks();
  return r;
}

ScenarioResult replay_scenario(const ScenarioOptions& opts,
                               const std::vector<int>& picks) {
  World w(opts.num_procs, scenario_world_options(opts));
  FixedScheduler fixed(picks, FixedScheduler::Fallback::kStop,
                       FixedScheduler::Divergence::kFail);
  return run_scenario(w, fixed, opts);
}

}  // namespace apram::sim
