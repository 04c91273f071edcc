// Shared helpers for the experiment binaries (bench/bench_e*.cpp).
//
// Every binary runs with no arguments (flags can narrow/widen sweeps),
// prints one or more tables to stdout, and finishes in seconds — together
// they regenerate every quantitative claim in the paper (see DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for recorded results).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace apram::bench {

// Per-binary observability bundle: the registry every measurement flows
// into, and the machine-readable JSON artifact CI asserts on. Construct it
// right after Flags (it claims --metrics_out; pass --metrics_out= to
// disable the artifact) and call emit() once at the end of run(). The
// default path routes through obs::artifact_path ($APRAM_ARTIFACT_DIR,
// else the binary's directory) so a source-dir invocation never litters
// the tree; an explicit --metrics_out is taken verbatim.
class BenchObs {
 public:
  BenchObs(const std::string& bench_name, Flags& flags)
      : name_(bench_name),
        path_(flags.get_string(
            "metrics_out",
            obs::artifact_path(bench_name + ".metrics.json"))) {}

  obs::Registry& registry() { return registry_; }

  void emit(const obs::Tracer* tracer = nullptr) {
    if (path_.empty()) return;
    obs::write_metrics_json(path_, registry_, tracer, name_);
    std::cout << "metrics artifact: " << path_ << "\n";
  }

 private:
  std::string name_;
  std::string path_;
  obs::Registry registry_;
};

using Clock = std::chrono::steady_clock;

// Timed passes per ns_per_op row.
inline constexpr int kTimedPasses = 5;

// Wall-clock ns per op of `body`, a loop of `ops` operations: the median of
// kTimedPasses back-to-back passes, so a pass that loses the core or runs
// at a lower clock does not set the row.
inline double ns_per_op(const std::function<void()>& body,
                        std::uint64_t ops) {
  std::array<double, kTimedPasses> ns{};
  for (double& pass : ns) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    pass = std::chrono::duration<double, std::nano>(t1 - t0).count() /
           static_cast<double>(ops);
  }
  std::nth_element(ns.begin(), ns.begin() + kTimedPasses / 2, ns.end());
  return ns[kTimedPasses / 2];
}

// One approximate-agreement execution in the concurrent-participation
// regime (inputs installed first; see DESIGN.md §6), with the output phase
// interleaved by `sched`.
struct AgreementOutcome {
  std::vector<double> outputs;
  std::int64_t max_round = 0;
  std::uint64_t max_steps_per_proc = 0;  // output-phase steps only
  bool valid = false;                    // range(Y) ⊆ range(X), |Y| < ε
};

inline AgreementOutcome run_agreement_regime(const std::vector<double>& inputs,
                                             double eps,
                                             sim::Scheduler& sched) {
  const int n = static_cast<int>(inputs.size());
  sim::World w(n);
  ApproxAgreementSim aa(w, n, eps);

  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&aa, &inputs, pid](sim::Context ctx) -> sim::ProcessTask {
      co_await aa.input(ctx, inputs[static_cast<std::size_t>(pid)]);
    });
  }
  sim::RoundRobinScheduler rr;
  APRAM_CHECK(w.run(rr).all_done);

  std::vector<std::uint64_t> phase1_steps(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    phase1_steps[static_cast<std::size_t>(pid)] = w.counts(pid).total();
  }

  AgreementOutcome out;
  out.outputs.resize(inputs.size());
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&aa, &out, pid](sim::Context ctx) -> sim::ProcessTask {
      out.outputs[static_cast<std::size_t>(pid)] = co_await aa.output(ctx);
    });
  }
  APRAM_CHECK(w.run(sched, 50'000'000).all_done);

  for (int pid = 0; pid < n; ++pid) {
    out.max_round = std::max(out.max_round, aa.peek_entry(pid).round);
    out.max_steps_per_proc = std::max(
        out.max_steps_per_proc,
        w.counts(pid).total() - phase1_steps[static_cast<std::size_t>(pid)]);
  }
  const RealRange in = range_of(inputs);
  const RealRange y = range_of(out.outputs);
  out.valid = in.contains(y) && y.size() < eps;
  return out;
}

}  // namespace apram::bench
