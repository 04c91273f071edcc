// E6 — §5.4: the universal construction costs O(n²) reads+writes per
// operation.
//
// Claim: every operation of a commute/overwrite object built by Figure 4
// performs one atomic scan (n²−1 reads, n+1 writes) plus one anchor write —
// a worst-case synchronization overhead of O(n²), independent of schedule
// and of which operation runs.
//
// Reproduction: measure per-operation shared-memory deltas of the universal
// counter across n; fit the growth exponent of reads against n (expect 2.0);
// verify the cost is identical for inc, dec, reset, and read, and identical
// under contention.
//
// E6c/E6d extend the experiment with the normalized fast-path/slow-path
// simulator (apram::universal2): the same counter semantics at 1 read +
// 1 CAS per uncontended op instead of a full scan. E6c shows the per-op
// access gap on the sim backend; E6d measures real-thread throughput of
// both constructions at n=8 uncontended and asserts universal2 is at least
// 5x faster — the headline CI gates via tools/check_bench_regression.py.
// E6e records a traced contended run so `apram-trace check --bound
// u2_help=n-1` can certify the help bound offline from this artifact.
#include <chrono>
#include <memory>

#include "api/sim_backend.hpp"
#include "bench_common.hpp"
#include "obs/analyze.hpp"
#include "objects/counter.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/scan_stats.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/rt.hpp"

namespace apram::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_e6_universal_overhead", flags);
  // Per-op cost of the paper construction grows with history length (the
  // linearize pass walks every logged entry), so its rt op count stays
  // small; universal2's is flat, so it can afford a real sample.
  const std::uint64_t rt_ops_paper =
      static_cast<std::uint64_t>(flags.get_int("rt_ops_paper", 300));
  const std::uint64_t rt_ops_u2 =
      static_cast<std::uint64_t>(flags.get_int("rt_ops_u2", 20000));
  flags.check_unused();

  Table table("E6: universal-construction cost per operation (solo)",
              {"n", "op", "reads", "writes", "total",
               "scan_reads+1w_expected"});
  std::vector<double> log_n, log_total;
  for (int n : {1, 2, 4, 8, 16, 24}) {
    const char* names[] = {"inc", "dec", "reset", "read"};
    for (int which = 0; which < 4; ++which) {
      sim::World w(n);
      CounterSim c(w, n);
      w.spawn(0, [&, which](sim::Context ctx) -> sim::ProcessTask {
        switch (which) {
          case 0: co_await c.inc(ctx, 1); break;
          case 1: co_await c.dec(ctx, 1); break;
          case 2: co_await c.reset(ctx, 0); break;
          default: (void)co_await c.read(ctx); break;
        }
      });
      w.run_solo(0);
      const std::uint64_t reads = w.counts(0).reads;
      const std::uint64_t writes = w.counts(0).writes;
      const auto expected_reads = expected_scan_reads(n, ScanMode::kOptimized);
      const auto expected_writes =
          expected_scan_writes(n, ScanMode::kOptimized) + 1;
      APRAM_CHECK_MSG(reads == expected_reads && writes == expected_writes,
                      "universal op cost differs from scan+1 write");
      if (which == 0 && n >= 2) {
        log_n.push_back(std::log2(static_cast<double>(n)));
        log_total.push_back(std::log2(static_cast<double>(reads + writes)));
      }
      table.add(n)
          .add(names[which])
          .add(reads)
          .add(writes)
          .add(reads + writes)
          .add(std::to_string(expected_reads) + "r+" +
               std::to_string(expected_writes) + "w")
          .end_row();
    }
  }
  table.print(std::cout);

  const double exponent = linear_slope(log_n, log_total);
  std::cout << "growth exponent of total shared ops vs n (log-log slope): "
            << exponent << " (theory: -> 2.0 for large n)\n";
  APRAM_CHECK_MSG(exponent > 1.6 && exponent < 2.3,
                  "universal overhead is not quadratic");
  bobs.registry()
      .gauge("e6.exponent_milli")
      .set(static_cast<std::int64_t>(exponent * 1000.0));

  // Contention does not change the per-op cost (wait-free, no retries).
  Table contention("E6b: per-op cost with all n processes operating (n=6)",
                   {"pid", "ops", "reads/op", "writes/op"});
  {
    const int n = 6, ops = 3;
    sim::World w(n);
    CounterSim c(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&c, ops](sim::Context ctx) -> sim::ProcessTask {
        for (int i = 0; i < ops; ++i) co_await c.inc(ctx, 1);
      });
    }
    sim::RandomScheduler rs(13);
    APRAM_CHECK(w.run(rs).all_done);
    for (int pid = 0; pid < n; ++pid) {
      const double r =
          static_cast<double>(w.counts(pid).reads) / static_cast<double>(ops);
      const double wr =
          static_cast<double>(w.counts(pid).writes) / static_cast<double>(ops);
      APRAM_CHECK(r == static_cast<double>(expected_scan_reads(
                           n, ScanMode::kOptimized)));
      contention.add(pid).add(ops).add(r, 1).add(wr, 1).end_row();
    }
  }
  contention.print(std::cout);

  // E6c — the normalized fast path removes the scan entirely: an
  // uncontended universal2 inc is 1 read + 1 CAS regardless of n, against
  // the paper construction's scan + anchor write.
  Table cmp("E6c: solo inc cost — paper universal vs universal2 fast path",
            {"n", "paper_accesses", "u2_accesses", "gap_x"});
  for (int n : {2, 4, 8, 16, 24}) {
    const std::uint64_t paper_total =
        expected_scan_reads(n, ScanMode::kOptimized) +
        expected_scan_writes(n, ScanMode::kOptimized) + 1;
    sim::World w(n);
    universal2::Counter2<api::SimBackend> c(
        w, n, {.max_fast_attempts = 3, .help_period = 0});
    // One warm-up op, then measure the steady-state per-op delta.
    w.spawn(0, [&c](sim::Context ctx) -> sim::ProcessTask {
      co_await c.inc(ctx, 1);
    });
    w.run_solo(0);
    const std::uint64_t before = w.counts(0).total();
    w.spawn(0, [&c](sim::Context ctx) -> sim::ProcessTask {
      co_await c.inc(ctx, 1);
    });
    w.run_solo(0);
    const std::uint64_t u2_total = w.counts(0).total() - before;
    APRAM_CHECK_MSG(u2_total == 2,
                    "universal2 fast-path inc must cost 1 read + 1 CAS");
    cmp.add(n)
        .add(paper_total)
        .add(u2_total)
        .add(static_cast<double>(paper_total) / static_cast<double>(u2_total),
             1)
        .end_row();
    bobs.registry()
        .gauge("e6.cmp.n" + std::to_string(n) + ".paper_accesses")
        .set(static_cast<std::int64_t>(paper_total));
    bobs.registry()
        .gauge("e6.cmp.n" + std::to_string(n) + ".u2_accesses")
        .set(static_cast<std::int64_t>(u2_total));
  }
  cmp.print(std::cout);

  // E6d — real threads, n=8, uncontended (each thread drives its own
  // object, all objects sized for 8 processes, so the paper construction
  // pays its full-width scan while universal2 stays on the fast path).
  Table rt_table("E6d: rt uncontended throughput at n=8 (per-thread objects)",
                 {"impl", "threads", "ops/thread", "ops_per_sec"});
  const int kThreads = 8;
  obs::LatencyRecorder paper_lat(bobs.registry(),
                                 "e6.rt.paper.n8.uncontended.op_ns");
  obs::LatencyRecorder u2_lat(bobs.registry(),
                              "e6.rt.u2.n8.uncontended.op_ns");
  double paper_ops_sec = 0.0;
  {
    std::vector<std::unique_ptr<universal2::PaperUniversalRT<CounterSpec>>>
        objs;
    for (int t = 0; t < kThreads; ++t) {
      objs.push_back(
          std::make_unique<universal2::PaperUniversalRT<CounterSpec>>(
              kThreads));
    }
    rt::ThroughputRun tr(kThreads);
    paper_ops_sec = tr.run_ops(rt_ops_paper, [&](int pid) {
      obs::LatencyRecorder::Timer timer(paper_lat);
      (void)objs[static_cast<std::size_t>(pid)]->execute(
          0, CounterSpec::inc(1));
    });
    tr.export_metrics(bobs.registry(), "e6.rt.paper.n8.uncontended");
  }
  double u2_ops_sec = 0.0;
  {
    std::vector<std::unique_ptr<universal2::Counter2RT>> objs;
    for (int t = 0; t < kThreads; ++t) {
      objs.push_back(std::make_unique<universal2::Counter2RT>(kThreads));
    }
    rt::ThroughputRun tr(kThreads);
    u2_ops_sec = tr.run_ops(rt_ops_u2, [&](int pid) {
      obs::LatencyRecorder::Timer timer(u2_lat);
      (void)objs[static_cast<std::size_t>(pid)]->inc(0, 1);
    });
    tr.export_metrics(bobs.registry(), "e6.rt.u2.n8.uncontended");
  }
  rt_table.add("paper")
      .add(kThreads)
      .add(rt_ops_paper)
      .add(paper_ops_sec, 0)
      .end_row();
  rt_table.add("universal2")
      .add(kThreads)
      .add(rt_ops_u2)
      .add(u2_ops_sec, 0)
      .end_row();
  rt_table.print(std::cout);
  const double speedup = u2_ops_sec / paper_ops_sec;
  std::cout << "universal2 / paper uncontended speedup at n=8: " << speedup
            << "x\n";
  bobs.registry()
      .gauge("e6.rt.paper.n8.uncontended.ops_per_sec")
      .set(static_cast<std::int64_t>(paper_ops_sec));
  bobs.registry()
      .gauge("e6.rt.u2.n8.uncontended.ops_per_sec")
      .set(static_cast<std::int64_t>(u2_ops_sec));
  bobs.registry()
      .gauge("e6.rt.u2_speedup_x100")
      .set(static_cast<std::int64_t>(speedup * 100.0));
  APRAM_CHECK_MSG(speedup >= 5.0,
                  "universal2 must beat the paper construction by >= 5x "
                  "uncontended at n=8");

  // E6e — traced contended run (sim, every op forced onto the slow path)
  // whose events ride the metrics artifact, so the help bound is
  // re-derivable offline:  apram-trace check <artifact> --bound u2_help=n-1
  obs::Tracer tracer(6, 1 << 16);
  {
    const int n = 6, ops = 8;
    sim::World w(n, {.tracer = &tracer});
    universal2::Counter2<api::SimBackend> c(
        w, n, {.max_fast_attempts = 0, .help_period = 1});
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&c, ops](sim::Context ctx) -> sim::ProcessTask {
        for (int i = 0; i < ops; ++i) {
          co_await c.inc(ctx, 1);
        }
      });
    }
    sim::RandomScheduler rs(29);
    APRAM_CHECK(w.run(rs).all_done);
    const obs::TraceAnalysis a = obs::analyze(tracer.events());
    const obs::BoundReport report = obs::check_u2_help_bound(a, n);
    APRAM_CHECK_MSG(report.ok() && report.checked > 0,
                    "traced universal2 run violates the n-1 help bound");
    std::cout << "E6e traced run: " << report.checked
              << " complete universal2 ops, help bound " << report.formula
              << " holds.\n";
  }

  bobs.emit(&tracer);
  std::cout << "\nE6 PASS: every operation costs exactly one scan + one "
               "anchor write; growth is quadratic in n; universal2's "
               "normalized fast path is >= 5x faster uncontended at n=8.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
