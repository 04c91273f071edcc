// E4 — §6.2: exact operation counts of the lattice Scan.
//
// Claim: a Scan performs n²+n+1 reads and n+2 writes as written (kPlain),
// and n²−1 reads and n+1 writes after the stated optimizations (drop the
// final write; serve self-reads from the single-writer cache).
//
// Reproduction: the World counts every access per process
// (sim::World::counts); the read/write counts of one Scan must equal the
// closed forms *exactly* at each n — any mismatch aborts. A second table
// shows the cost is schedule-independent (wait-freedom in the strongest
// sense).
//
// --trace_out=<path> additionally runs a traced contended world at
// --trace_n (default 4) processes, writes a Perfetto-openable Chrome trace
// to <path>, and embeds the raw span/access events in the metrics artifact
// so `apram-trace check --bound scan` can re-derive the n²−1 / n+1 bound
// from the trace alone — independently of the World's counts above.
#include <memory>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/scan_stats.hpp"

namespace apram::bench {
namespace {

using MaxL = MaxLattice<std::int64_t>;

sim::StepCounts measure_solo_scan(int n, ScanMode mode) {
  sim::World w(n);
  LatticeScanSim<MaxL> ls(w, n, mode);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    co_await ls.scan(ctx, 1);
  });
  w.run_solo(0);
  return w.counts(0);
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_e4_scan_ops", flags);
  const std::string trace_out = flags.get_string("trace_out", "");
  const int trace_n = static_cast<int>(flags.get_int("trace_n", 4));
  flags.check_unused();

  Table table("E4: Scan operation counts (must match §6.2 exactly)",
              {"n", "mode", "reads", "reads_expected", "writes",
               "writes_expected"});
  for (int n : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32}) {
    for (ScanMode mode : {ScanMode::kPlain, ScanMode::kOptimized}) {
      const auto m = measure_solo_scan(n, mode);
      const auto er = expected_scan_reads(n, mode);
      const auto ew = expected_scan_writes(n, mode);
      APRAM_CHECK_MSG(m.reads == er && m.writes == ew,
                      "scan op count mismatch with §6.2");
      table.add(n)
          .add(mode == ScanMode::kPlain ? "plain" : "optimized")
          .add(m.reads)
          .add(er)
          .add(m.writes)
          .add(ew)
          .end_row();
    }
  }
  table.print(std::cout);

  // Schedule independence: under heavy contention the per-scan cost is
  // byte-identical (straight-line algorithm, no retries).
  Table contention(
      "E4b: per-scan cost under contention (n=6, every process scanning)",
      {"schedule", "pid", "reads", "writes"});
  for (std::uint64_t seed : {0ULL, 7ULL, 99ULL}) {
    const int n = 6;
    sim::World w(n);
    LatticeScanSim<MaxL> ls(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&ls, pid](sim::Context ctx) -> sim::ProcessTask {
        co_await ls.scan(ctx, pid);
      });
    }
    sim::RandomScheduler rs(seed);
    APRAM_CHECK(w.run(rs).all_done);
    for (int pid = 0; pid < n; ++pid) {
      APRAM_CHECK(w.counts(pid).reads ==
                  expected_scan_reads(n, ScanMode::kOptimized));
      APRAM_CHECK(w.counts(pid).writes ==
                  expected_scan_writes(n, ScanMode::kOptimized));
      if (pid == 0) {
        contention.add("rnd seed " + std::to_string(seed))
            .add(pid)
            .add(w.counts(pid).reads)
            .add(w.counts(pid).writes)
            .end_row();
      }
    }
  }
  contention.print(std::cout);

  // Traced contended world: every process runs one optimized Scan with span
  // tracing on, so the offline analyzer can re-count each op's accesses.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    const int n = trace_n;
    tracer = std::make_unique<obs::Tracer>(n, /*capacity_per_ring=*/1 << 12);
    sim::World w(n, {.tracer = tracer.get()});
    LatticeScanSim<MaxL> ls(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&ls, pid](sim::Context ctx) -> sim::ProcessTask {
        co_await ls.scan(ctx, pid);
      });
    }
    sim::RandomScheduler rs(1);
    APRAM_CHECK(w.run(rs).all_done);
    obs::write_chrome_trace(trace_out, tracer->events(),
                            obs::TraceTimebase::kSimSteps,
                            "bench_e4 traced Scan n=" + std::to_string(n));
    std::cout << "\ntraced Scan world (n=" << n << "): " << trace_out
              << " — open in ui.perfetto.dev; raw events embedded in the "
                 "metrics artifact for apram-trace.\n";
  }
  bobs.emit(tracer.get());
  std::cout << "\nE4 PASS: World-recorded counts equal the closed forms "
               "at every n, in both modes, under every schedule.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
