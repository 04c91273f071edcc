#include "fault/certifier.hpp"

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/replay_artifact.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace apram::fault {

Judge step_bound_judge(std::vector<StepBound> bounds) {
  return [bounds = std::move(bounds)](sim::Execution& exec) -> std::string {
    const sim::World& w = exec.world();
    const int n = std::min(w.num_procs(), static_cast<int>(bounds.size()));
    for (int pid = 0; pid < n; ++pid) {
      const std::uint64_t reads = w.counts(pid).reads;
      const std::uint64_t writes = w.counts(pid).writes;
      const StepBound& b = bounds[static_cast<std::size_t>(pid)];
      if (reads > b.reads) {
        return "pid " + std::to_string(pid) + ": " + std::to_string(reads) +
               " reads exceed bound " + std::to_string(b.reads);
      }
      if (writes > b.writes) {
        return "pid " + std::to_string(pid) + ": " + std::to_string(writes) +
               " writes exceed bound " + std::to_string(b.writes);
      }
    }
    return "";
  };
}

namespace {

// One campaign iteration. Everything the run does derives from `seed`, so a
// violation is reproducible from its seed alone even without the artifact.
void run_one(const sim::ExecutionFactory& factory, const Judge& judge,
             const CampaignOptions& opts, std::uint64_t seed,
             CampaignResult& result) {
  Rng rng(seed);
  const std::uint64_t sched_seed = rng.next();
  const double stickiness =
      opts.max_stickiness > 0.0 ? rng.uniform(0.0, opts.max_stickiness) : 0.0;

  // When artifacts are requested, a tracer rides along so a violation ships
  // with its full event trace (spans included) in both metrics-JSON and
  // Perfetto form.
  std::unique_ptr<sim::Execution> exec = factory();
  sim::World& w = exec->world();
  const FaultPlan plan = random_plan(rng, w.num_procs(), opts.plan);
  std::unique_ptr<obs::Tracer> tracer;
  if (!opts.artifact_dir.empty()) {
    tracer = std::make_unique<obs::Tracer>(w.num_procs(),
                                           /*capacity_per_ring=*/1 << 12);
  }
  sim::World::Options wopts;
  wopts.tracer = tracer.get();
  wopts.crashes = plan.crashes;  // fired by the World, not the Nemesis
  w.apply_options(wopts);

  sim::RandomScheduler random(sched_seed, stickiness);
  Nemesis nemesis(random, plan);
  sim::RecordingScheduler rec(nemesis);
  const sim::RunResult run = w.run_steps(rec, opts.max_steps);

  for (const sim::World::CrashPoint& c : plan.crashes) {
    if (w.crashed(c.pid)) ++result.crashes_fired;
  }
  result.stall_deflections += nemesis.stall_deflections();
  result.burst_grants += nemesis.burst_grants();

  std::string what;
  if (!run.all_done) {
    what = "wait-freedom violation: execution incomplete after " +
           std::to_string(run.steps_taken) + " grants";
  } else if (judge) {
    what = judge(*exec);
  }
  if (what.empty()) return;

  Violation v;
  v.seed = seed;
  v.what = what;
  v.schedule = rec.picks();
  if (!opts.artifact_dir.empty()) {
    std::filesystem::create_directories(opts.artifact_dir);
    const std::string title = "fault-campaign seed " + std::to_string(seed);
    const std::string stem =
        opts.artifact_dir + "/violation-seed" + std::to_string(seed);
    // The replay artifact is the scheduler's own recording, complete from
    // grant zero whatever the trace rings kept.
    v.artifact_path = stem + ".schedule";
    obs::write_schedule_file(
        v.artifact_path, v.schedule,
        {"seed " + std::to_string(seed), "violation: " + what,
         plan.describe()});
    // Each pid's access counts at the violation, beside the run's events.
    obs::Registry registry;
    for (int pid = 0; pid < w.num_procs(); ++pid) {
      const std::string p = ".p" + std::to_string(pid);
      registry.gauge("cert.reads" + p)
          .set(static_cast<std::int64_t>(w.counts(pid).reads));
      registry.gauge("cert.writes" + p)
          .set(static_cast<std::int64_t>(w.counts(pid).writes));
    }
    v.metrics_path = stem + ".metrics.json";
    obs::write_metrics_json(v.metrics_path, registry, tracer.get(),
                            title + ": " + what);
    obs::write_chrome_trace(stem + ".trace.json", tracer->events(),
                            obs::TraceTimebase::kSimSteps, title);
  }
  result.violations.push_back(std::move(v));
}

}  // namespace

CampaignResult certify_wait_freedom(const sim::ExecutionFactory& factory,
                                    const Judge& judge,
                                    const CampaignOptions& opts) {
  APRAM_CHECK(opts.schedules > 0);
  CampaignResult result;
  for (int i = 0; i < opts.schedules; ++i) {
    run_one(factory, judge, opts,
            opts.base_seed + static_cast<std::uint64_t>(i), result);
    ++result.schedules_run;
  }
  return result;
}

std::unique_ptr<sim::Execution> replay_artifact(
    const sim::ExecutionFactory& factory, const std::string& path) {
  // The recorded grant sequence is self-contained: a crashed victim's grants
  // simply stop at its crash point, so replaying the grants reproduces every
  // access — including the victim's — without re-firing the crash itself.
  return sim::replay(factory, obs::read_schedule_file(path),
                     sim::FixedScheduler::Divergence::kFail);
}

}  // namespace apram::fault
