// The fault campaign (label: stress). Not part of the tier-1 PR gate — the
// nightly CI job and local `ctest -L stress` run it.
//
// Scope pinned by the certification story:
//   * ≥ 1000 adversarial sim schedules against the snapshot object, exact
//     §6.2 step bounds, seeded crash/stall/burst plans (certify_wait_freedom)
//   * agreement campaigns holding the Theorem 5 step bound under faults
//   * ≥ 100 real-thread injection runs with linearizable recorded histories
//   * every emitted violation artifact reproduces its run step-identically
//
// All randomness derives from tests/fault_seeds.hpp, so a nightly failure
// reproduces locally without seed hunting. Artifacts land in
// $APRAM_FAULT_ARTIFACT_DIR when set (the CI job uploads that directory on
// failure) and in the gtest temp dir otherwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "fault/certifier.hpp"
#include "fault/nemesis.hpp"
#include "fault/rt_inject.hpp"
#include "fault_seeds.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/fast_counter.hpp"
#include "objects/specs.hpp"
#include "rt/thread_harness.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

using sim::Context;
using sim::Execution;
using sim::ProcessTask;
using sim::World;
using C = CounterSpec;

std::string artifact_dir(const std::string& subdir) {
  const char* env = std::getenv("APRAM_FAULT_ARTIFACT_DIR");
  const std::string base =
      env != nullptr ? std::string(env) : ::testing::TempDir() + "apram-fault";
  return base + "/" + subdir;
}

// ---------------------------------------------------------------------------
// Sim campaign 1: snapshot object, exact §6.2 bounds, ≥ 1000 schedules
// ---------------------------------------------------------------------------

// Two updaters (one update: 1 write each) and a scanner (two tagged scans:
// 2·(n²−1) = 16 reads, 2·(n+1) = 8 writes at n = 3, kOptimized).
struct SnapExec final : Execution {
  SnapExec() : w(3), snap(w, 3) {
    for (int pid = 0; pid < 2; ++pid) {
      w.spawn(pid, [this, pid](Context ctx) -> ProcessTask {
        co_await snap.update(ctx, 100 + pid);
      });
    }
    w.spawn(2, [this](Context ctx) -> ProcessTask {
      views.push_back(co_await snap.scan_tagged(ctx));
      views.push_back(co_await snap.scan_tagged(ctx));
    });
  }
  World& world() override { return w; }
  World w;
  AtomicSnapshotSim<int> snap;
  std::vector<TaggedVectorLattice<int>::Value> views;
};

sim::ExecutionFactory snap_factory() {
  return [] { return std::make_unique<SnapExec>(); };
}

TEST(FaultCampaign, SnapshotThousandAdversarialSchedulesCertify) {
  std::uint64_t total_schedules = 0;
  std::uint64_t total_faults = 0;
  for (const std::uint64_t base : fault_seeds::kCampaignBaseSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 200;
    opts.base_seed = base;
    opts.plan.never_crash = {2};  // the scanner is the measured process
    opts.artifact_dir = artifact_dir("snapshot");
    const fault::CampaignResult result = fault::certify_wait_freedom(
        snap_factory(), fault::step_bound_judge({{0, 1}, {0, 1}, {16, 8}}),
        opts);
    EXPECT_TRUE(result.certified()) << "base_seed=" << base << ": "
        << (result.violations.empty()
                ? "no schedules ran"
                : result.violations[0].what + " (artifact: " +
                      result.violations[0].artifact_path + ")");
    total_schedules += result.schedules_run;
    total_faults += result.crashes_fired + result.stall_deflections +
                    result.burst_grants;
  }
  EXPECT_GE(total_schedules, 1000u);
  // A campaign that never fired a fault certified nothing adversarial.
  EXPECT_GT(total_faults, 0u);
}

// ---------------------------------------------------------------------------
// Sim campaign 2: approximate agreement, Theorem 5 bound under faults
// ---------------------------------------------------------------------------

struct AgreementExec final : Execution {
  AgreementExec() : w(3), agree(w, 3, /*epsilon=*/0.01) {
    const double inputs[] = {0.0, 1.0, 0.25};
    for (int pid = 0; pid < 3; ++pid) {
      w.spawn(pid, [this, pid, x = inputs[pid]](Context ctx) -> ProcessTask {
        co_await agree.input(ctx, x);
        outputs[static_cast<std::size_t>(pid)] = co_await agree.output(ctx);
      });
    }
  }
  World& world() override { return w; }
  World w;
  ApproxAgreementSim agree;
  double outputs[3] = {-1.0, -1.0, -1.0};
};

TEST(FaultCampaign, AgreementStepBoundHoldsUnderFaults) {
  // Theorem 5: (2n+1)·log2(Δ/ε) + O(n) steps per process, here with the
  // same generous constant slack the tier-1 bound test uses.
  const int n = 3;
  const double log_ratio = std::log2(1.0 / 0.01);
  const double bound = (2.0 * n + 1.0) * (log_ratio + 3.0) + 8.0 * n;
  const fault::Judge judge = [bound, n](sim::Execution& e) -> std::string {
    for (int pid = 0; pid < n; ++pid) {
      const double steps =
          static_cast<double>(e.world().counts(pid).total());
      if (steps > bound) {
        return "pid " + std::to_string(pid) + ": " +
               std::to_string(static_cast<std::uint64_t>(steps)) +
               " steps exceed the Theorem 5 bound " + std::to_string(bound);
      }
    }
    return "";
  };
  std::uint64_t total_schedules = 0;
  for (const std::uint64_t base : fault_seeds::kCampaignBaseSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 100;
    opts.base_seed = base;
    opts.plan.max_crashes = 2;  // at least one survivor
    opts.artifact_dir = artifact_dir("agreement");
    const fault::CampaignResult result = fault::certify_wait_freedom(
        [] { return std::make_unique<AgreementExec>(); }, judge, opts);
    EXPECT_TRUE(result.certified()) << "base_seed=" << base << ": "
        << (result.violations.empty() ? "no schedules ran"
                                      : result.violations[0].what);
    total_schedules += result.schedules_run;
  }
  EXPECT_GE(total_schedules, 500u);
}

// ---------------------------------------------------------------------------
// Rt campaign: ≥ 100 injection runs, all histories linearizable
// ---------------------------------------------------------------------------

TEST(FaultCampaign, RtInjectionHundredRunsLinearizable) {
  const int n = 3;
  const int ops_per_thread = 8;
  int runs = 0;
  for (const std::uint64_t base : fault_seeds::kCampaignBaseSeeds) {
    for (int rep = 0; rep < 20; ++rep, ++runs) {
      const std::uint64_t seed = base * 1000 + static_cast<std::uint64_t>(rep);
      fault::RtInjectOptions inj_opts;
      inj_opts.yield_prob = 0.5;
      inj_opts.sleep_prob = 0.05;
      inj_opts.sleep_max_us = 20;
      inj_opts.seed = seed;
      fault::RtInjector inj(inj_opts);
      rt::FastCounterRT counter(n);
      counter.attach_injector(&inj);

      HistoryRecorder<C> rec;
      rt::parallel_run(n, [&](int pid) {
        Rng rng(seed * 31 + static_cast<std::uint64_t>(pid));
        for (int i = 0; i < ops_per_thread; ++i) {
          if (rng.chance(0.5)) {
            const auto tok = rec.begin(pid, C::inc(1));
            counter.inc(pid);
            rec.end(tok, 0);
          } else {
            const auto tok = rec.begin(pid, C::read());
            rec.end(tok, counter.read(pid));
          }
        }
      });
      ASSERT_TRUE(is_linearizable<C>(rec.take())) << "seed=" << seed;
    }
  }
  EXPECT_GE(runs, 100);
}

TEST(FaultCampaign, RtStallAtEveryBoundaryLeavesAPendingOp) {
  // Calibrate the per-inc register access cost, then park the victim at
  // every access boundary of a two-inc program and check the mid-stall
  // history with the stalled inc as a genuine pending operation.
  std::uint64_t per_inc = 0;
  {
    fault::RtInjector inj(fault::RtInjectOptions{});
    rt::FastCounterRT calib(2);
    calib.attach_injector(&inj);
    rt::parallel_run(1, [&](int pid) { calib.inc(pid); });
    per_inc = inj.accesses(0);
    ASSERT_GT(per_inc, 0u);
  }
  for (std::uint64_t k = 0; k < 2 * per_inc; ++k) {
    fault::RtInjector inj(fault::RtInjectOptions{});
    rt::FastCounterRT counter(2);
    counter.attach_injector(&inj);
    std::int64_t probed = -1;
    rt::run_with_stall(
        /*num_threads=*/1,
        [&](int pid) {
          counter.inc(pid);
          counter.inc(pid);
        },
        inj, /*victim=*/0, /*stall_after=*/k,
        [&] { probed = counter.read(1); });

    // Parked at the top of access k+1: exactly floor(k / per_inc) incs
    // completed, the next one is pending (invoked, unresponded).
    const auto completed = static_cast<std::int64_t>(k / per_inc);
    std::vector<RecordedOp<C>> h;
    std::uint64_t t = 0;
    for (std::int64_t i = 0; i < completed; ++i) {
      RecordedOp<C> r;
      r.pid = 0;
      r.inv = C::inc(1);
      r.invoke_time = t++;
      r.resp = 0;
      r.respond_time = t++;
      h.push_back(r);
    }
    RecordedOp<C> pending;
    pending.pid = 0;
    pending.inv = C::inc(1);
    pending.invoke_time = t++;  // respond_time stays kPending
    h.push_back(pending);
    RecordedOp<C> probe;
    probe.pid = 1;
    probe.inv = C::read();
    probe.invoke_time = t++;
    probe.resp = probed;
    probe.respond_time = t++;
    h.push_back(probe);
    EXPECT_TRUE(is_linearizable<C>(h))
        << "stall_after=" << k << " probed=" << probed;
    // Released victim finishes: both incs land.
    EXPECT_EQ(counter.read(1), 2) << "stall_after=" << k;
  }
}

// ---------------------------------------------------------------------------
// Artifact self-test: every violation reproduces step-identically
// ---------------------------------------------------------------------------

TEST(FaultCampaign, EveryInjectedViolationReproducesStepIdentically) {
  const std::string dir = artifact_dir("selftest");
  std::filesystem::remove_all(dir);
  std::uint64_t artifacts_checked = 0;
  for (const std::uint64_t base : fault_seeds::kCampaignBaseSeeds) {
    fault::CampaignOptions opts;
    opts.schedules = 2;
    opts.base_seed = base;
    opts.plan.max_crashes = 0;
    opts.artifact_dir = dir;
    // Impossible bound: every scan starts with reads, so every schedule is
    // flagged and every flagged schedule must reproduce from its artifact.
    const fault::CampaignResult result = fault::certify_wait_freedom(
        snap_factory(), fault::step_bound_judge({{0, 1}, {0, 1}, {0, 8}}),
        opts);
    ASSERT_EQ(result.violations.size(), 2u) << "base_seed=" << base;
    for (const fault::Violation& v : result.violations) {
      ASSERT_FALSE(v.artifact_path.empty());
      ASSERT_TRUE(std::filesystem::exists(v.artifact_path));
      auto replayed = fault::replay_artifact(snap_factory(), v.artifact_path);
      World& w = replayed->world();
      std::vector<std::uint64_t> grants(3, 0);
      for (int pid : v.schedule) ++grants[static_cast<std::size_t>(pid)];
      for (int pid = 0; pid < 3; ++pid) {
        EXPECT_EQ(w.counts(pid).total(),
                  grants[static_cast<std::size_t>(pid)])
            << "seed=" << v.seed << " pid=" << pid;
      }
      EXPECT_EQ(w.global_step(), v.schedule.size()) << "seed=" << v.seed;
      auto replayed2 = fault::replay_artifact(snap_factory(), v.artifact_path);
      EXPECT_EQ(static_cast<SnapExec&>(*replayed).views,
                static_cast<SnapExec&>(*replayed2).views)
          << "seed=" << v.seed;
      ++artifacts_checked;
    }
  }
  EXPECT_EQ(artifacts_checked,
            2u * static_cast<std::uint64_t>(fault_seeds::kNumCampaignBaseSeeds));
}

}  // namespace
}  // namespace apram
