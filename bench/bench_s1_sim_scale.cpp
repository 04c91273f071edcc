// S1 — simulator scale: scheduler picks/s flatness and scenario throughput
// for huge Worlds.
//
// Headline (the sim-scale acceptance criterion): RoundRobin scheduler picks
// per second measured pick-only (no process stepped, so the number isolates
// the scheduler hot path: one RunnableSet successor query per pick) across
// n = 10³ … 10⁵ processes, and 10⁶ with --max_n=1000000. With the
// incrementally maintained runnable set the pick is O(1) in n, so the curve
// must be FLAT: the binary aborts if the slowest cell falls more than
// --flat_tolerance_x100 percent (default 10) below the fastest. Before the
// SoA refactor every pick was an O(n) scan and the same sweep collapsed by
// ~1000× from n=10³ to 10⁶.
//
// Context: end-to-end scenario throughput (grants/s) at the same sizes —
// Zipf-skewed writers with bursty open-loop arrivals and rolling
// crash/recovery churn (see src/sim/scenario.hpp). This includes frame
// materialization, register writes, and churn bookkeeping, so it is NOT
// expected to be flat, only to stay in the millions of grants/s.
//
// At --max_n=1000000 the binary additionally runs the acceptance scenario:
// a 10⁶-process World driving a 10⁷-grant Zipf workload to completion
// (--accept_steps grants), asserting all processes finish and every grant
// performed exactly one access.
//
// Every cell becomes a gauge `s1.rr_picks_per_sec.n<N>` /
// `s1.random_picks_per_sec.n<N>` / `s1.scenario_grants_per_sec.n<N>` in the
// metrics artifact. CI runs the sweep at n=10⁵ and gates
// s1.rr_picks_per_sec.n100000 normalized by s1.rr_picks_per_sec.n1000
// against the committed bench/results/BENCH_s1.json — the ratio IS the
// flatness claim, so machine speed cancels.
//
// --trace_out=<path> additionally runs a small traced scenario (n=256),
// writes a Perfetto-openable Chrome trace, and embeds the raw events in the
// metrics artifact so `apram-trace check --bound scenario_op=1` re-derives
// the one-access-per-op invariant from the trace alone.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/scenario.hpp"

namespace apram::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// A World with n lazily-spawned (pending, runnable, frameless) processes:
// the cheapest possible population for pick-only measurement.
std::unique_ptr<sim::World> pending_world(int n) {
  sim::World::Options opts;
  opts.lazy_spawn = true;
  auto w = std::make_unique<sim::World>(n, opts);
  for (int pid = 0; pid < n; ++pid) {
    w->spawn(pid, [](sim::Context) -> sim::ProcessTask { co_return; });
  }
  return w;
}

// Best-of-3 picks/s for `sched` driving pick() `picks` times with no steps
// taken in between (the World's runnable set never changes).
template <class MakeSched>
double pick_only_rate(sim::World& w, std::uint64_t picks,
                      const MakeSched& make_sched) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto sched = make_sched();
    const auto t0 = std::chrono::steady_clock::now();
    std::int64_t sink = 0;
    for (std::uint64_t i = 0; i < picks; ++i) sink += sched.pick(w);
    const double s = seconds_since(t0);
    APRAM_CHECK(sink >= 0);  // keep the loop observable
    if (s > 0.0) best = std::max(best, static_cast<double>(picks) / s);
  }
  return best;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_s1_sim_scale", flags);
  // CI smoke runs with the defaults (top cell n=10⁵); pass
  // --max_n=1000000 for the full acceptance sweep.
  const int max_n = static_cast<int>(flags.get_int("max_n", 100'000));
  const auto picks =
      static_cast<std::uint64_t>(flags.get_int("picks", 2'000'000));
  const int sweep_ops = static_cast<int>(flags.get_int("sweep_ops", 8));
  const auto accept_steps =
      static_cast<std::uint64_t>(flags.get_int("accept_steps", 10'000'000));
  const int flat_tol =
      static_cast<int>(flags.get_int("flat_tolerance_x100", 10));
  const std::string trace_out = flags.get_string("trace_out", "");
  flags.check_unused();

  std::vector<int> sizes;
  for (int n = 1'000; n <= max_n; n *= 10) sizes.push_back(n);

  // ---- headline: pick-only scheduler rates -------------------------------
  Table head("S1: scheduler picks/s, pick-only (flat = O(1) pick)",
             {"n", "rr_picks_s", "random_picks_s"});
  double rr_min = 0.0, rr_max = 0.0;
  for (int n : sizes) {
    auto w = pending_world(n);
    const double rr = pick_only_rate(
        *w, picks, [] { return sim::RoundRobinScheduler(); });
    const double rnd = pick_only_rate(
        *w, picks, [] { return sim::RandomScheduler(0x51, 0.0); });
    bobs.registry()
        .gauge("s1.rr_picks_per_sec.n" + std::to_string(n))
        .set(static_cast<std::int64_t>(rr));
    bobs.registry()
        .gauge("s1.random_picks_per_sec.n" + std::to_string(n))
        .set(static_cast<std::int64_t>(rnd));
    rr_min = rr_min == 0.0 ? rr : std::min(rr_min, rr);
    rr_max = std::max(rr_max, rr);
    head.add(n).add(rr, 0).add(rnd, 0).end_row();
  }
  head.print(std::cout);
  const double flat_pct =
      rr_max > 0.0 ? 100.0 * (1.0 - rr_min / rr_max) : 0.0;
  std::cout << "rr flatness: slowest cell is " << flat_pct
            << "% below the fastest (tolerance " << flat_tol << "%).\n\n";
  APRAM_CHECK_MSG(rr_min >= rr_max * (1.0 - flat_tol / 100.0),
                  "RoundRobin picks/s is not flat in n: the O(1) scheduler "
                  "hot path regressed to size-dependent cost");

  // ---- context: end-to-end scenario throughput ---------------------------
  Table ctx("S1b: scenario grants/s (Zipf writers, bursts, churn — "
            "includes frame materialization; not expected flat)",
            {"n", "grants", "grants_s", "crashes"});
  for (int n : sizes) {
    sim::ScenarioOptions opts;
    opts.num_procs = n;
    opts.num_registers = 256;
    opts.ops_per_process = sweep_ops;
    opts.total_steps =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(sweep_ops);
    opts.zipf_s = 1.0;
    opts.burst_every = std::max<std::uint64_t>(1, opts.total_steps / 64);
    opts.burst_size = std::max(1, n / 32);
    opts.churn_every = std::max<std::uint64_t>(1, opts.total_steps / 16);
    opts.churn_crashes = std::max(1, n / 1000);
    sim::World w(n, sim::scenario_world_options(opts));
    sim::RoundRobinScheduler rr;
    const auto t0 = std::chrono::steady_clock::now();
    const sim::ScenarioResult r = sim::run_scenario(w, rr, opts);
    const double s = seconds_since(t0);
    const double rate = s > 0.0 ? static_cast<double>(r.grants) / s : 0.0;
    bobs.registry()
        .gauge("s1.scenario_grants_per_sec.n" + std::to_string(n))
        .set(static_cast<std::int64_t>(rate));
    ctx.add(n).add(r.grants).add(rate, 0).add(r.crashes).end_row();
  }
  ctx.print(std::cout);

  // ---- acceptance: 10⁶ processes, 10⁷ grants, to completion --------------
  if (max_n >= 1'000'000) {
    const int n = 1'000'000;
    sim::ScenarioOptions opts;
    opts.num_procs = n;
    opts.num_registers = 1024;
    opts.ops_per_process =
        static_cast<int>(accept_steps / static_cast<std::uint64_t>(n));
    opts.total_steps = accept_steps;
    opts.zipf_s = 1.0;
    sim::World w(n, sim::scenario_world_options(opts));
    sim::RoundRobinScheduler rr;
    const auto t0 = std::chrono::steady_clock::now();
    const sim::ScenarioResult r = sim::run_scenario(w, rr, opts);
    const double s = seconds_since(t0);
    APRAM_CHECK_MSG(r.all_done, "acceptance scenario did not complete");
    APRAM_CHECK_MSG(r.accesses.total() == r.grants,
                    "a grant performed other than one access");
    bobs.registry()
        .gauge("s1.accept.grants_per_sec.n1000000")
        .set(static_cast<std::int64_t>(static_cast<double>(r.grants) / s));
    std::cout << "\nacceptance: n=10^6 world ran " << r.grants
              << " grants to completion in " << s << "s ("
              << static_cast<double>(r.grants) / s / 1e6 << "M grants/s).\n";
  }

  // ---- traced run: Perfetto artifact + analyzer input --------------------
  // A small traced scenario whose raw events ride in the metrics JSON, so
  // `apram-trace check BENCH_s1.json --bound scenario_op=1` re-derives the
  // one-access-per-op invariant from the trace alone.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    const int tn = 256;
    tracer = std::make_unique<obs::Tracer>(tn, /*capacity_per_ring=*/1 << 12);
    sim::ScenarioOptions opts;
    opts.num_procs = tn;
    opts.num_registers = 32;
    opts.ops_per_process = 8;
    opts.total_steps = static_cast<std::uint64_t>(tn) * 8u;
    sim::World::Options wopts = sim::scenario_world_options(opts);
    wopts.tracer = tracer.get();
    sim::World w(tn, wopts);
    sim::RoundRobinScheduler rr;
    const sim::ScenarioResult r = sim::run_scenario(w, rr, opts);
    APRAM_CHECK(r.all_done);
    obs::write_chrome_trace(trace_out, tracer->events(),
                            obs::TraceTimebase::kSimSteps,
                            "bench_s1 traced scenario n=" +
                                std::to_string(tn));
    std::cout << "\ntraced scenario run (n=" << tn << "): " << trace_out
              << " — open in ui.perfetto.dev; raw events embedded in the "
                 "metrics artifact for apram-trace.\n";
  }
  bobs.emit(tracer.get());
  std::cout << "\nS1 done.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
