// E8 — ablations of the design choices DESIGN.md calls out.
//
//   (a) Generic universal construction vs type-specific optimization
//       (§5.4's closing remark): the FastCounter collapses the precedence
//       graph into per-process totals — updates drop from O(n²) to a single
//       write, reads stay one scan.
//   (b) The §6.2 scan optimizations (plain vs optimized mode): exactly
//       n+2 reads and 1 write saved per scan.
//   (c) Helping (AADGMS) vs no helping (double-collect): retry distribution
//       under randomized contention — what wait-freedom buys.
#include "bench_common.hpp"
#include "objects/counter.hpp"
#include "objects/fast_counter.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/lattice_scan.hpp"
#include "util/rng.hpp"

namespace apram::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_e8_ablation", flags);
  flags.check_unused();

  // ---- (a) universal vs fast counter ------------------------------------
  Table a("E8a: universal counter vs type-optimized FastCounter (per op, "
          "solo)",
          {"n", "object", "inc_reads", "inc_writes", "read_reads",
           "read_writes"});
  for (int n : {2, 4, 8, 16}) {
    {
      sim::World w(n);
      CounterSim c(w, n);
      w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
        co_await c.inc(ctx, 1);
      });
      w.run_solo(0);
      const sim::StepCounts inc = w.counts(0);
      w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
        (void)co_await c.read(ctx);
      });
      w.run_solo(0);
      const sim::StepCounts read = w.counts(0) - inc;
      a.add(n).add("universal").add(inc.reads).add(inc.writes).add(read.reads)
          .add(read.writes).end_row();
    }
    {
      sim::World w(n);
      FastCounterSim c(w, n);
      w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
        co_await c.inc(ctx, 1);
      });
      w.run_solo(0);
      const sim::StepCounts inc = w.counts(0);
      w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
        (void)co_await c.read(ctx);
      });
      w.run_solo(0);
      const sim::StepCounts read = w.counts(0) - inc;
      APRAM_CHECK_MSG(inc.reads == 0 && inc.writes == 1,
                      "fast counter update must be one write");
      a.add(n).add("fast").add(inc.reads).add(inc.writes).add(read.reads)
          .add(read.writes).end_row();
    }
  }
  a.print(std::cout);
  std::cout << "shape: updates collapse from one full scan (O(n^2)) to one "
               "write; reads stay one scan for both.\n";

  // ---- (b) scan mode ablation --------------------------------------------
  Table b("E8b: §6.2 optimizations — plain vs optimized scan",
          {"n", "plain_reads", "opt_reads", "reads_saved", "plain_writes",
           "opt_writes", "writes_saved"});
  for (int n : {2, 4, 8, 16, 32}) {
    const auto pr = expected_scan_reads(n, ScanMode::kPlain);
    const auto orr = expected_scan_reads(n, ScanMode::kOptimized);
    const auto pw = expected_scan_writes(n, ScanMode::kPlain);
    const auto ow = expected_scan_writes(n, ScanMode::kOptimized);
    b.add(n).add(pr).add(orr).add(pr - orr).add(pw).add(ow).add(pw - ow)
        .end_row();
  }
  b.print(std::cout);

  // ---- (c) retry distribution without helping ----------------------------
  Table c("E8c: double-collect retry attempts under random contention "
          "(n=4, 3 updaters, 200 scans)",
          {"update_stickiness", "mean_attempts", "p95", "max"});
  for (double sticky : {0.0, 0.5, 0.9}) {
    std::vector<double> attempts;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const int n = 4;
      sim::World w(n);
      DoubleCollectSnapshotSim<int> snap(w, n);
      w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
        for (int k = 0; k < 20; ++k) {
          const std::uint64_t before = w.counts(0).reads;
          const auto view = co_await snap.scan(ctx, /*max_attempts=*/10'000);
          APRAM_CHECK(view.has_value());
          attempts.push_back(static_cast<double>(w.counts(0).reads - before) /
                             (2.0 * n));
        }
      });
      for (int pid = 1; pid < n; ++pid) {
        w.spawn(pid, [&, pid](sim::Context ctx) -> sim::ProcessTask {
          for (int i = 0; i < 100'000; ++i) {
            co_await snap.update(ctx, pid * 1000 + i);
            if (ctx.world().done(0)) co_return;
          }
        });
      }
      sim::RandomScheduler rs(seed, sticky);
      w.run(rs, 5'000'000);
    }
    RunningStats st;
    for (double x : attempts) st.add(x);
    c.add(sticky, 1)
        .add(st.mean(), 2)
        .add(percentile(attempts, 0.95), 2)
        .add(st.max(), 1)
        .end_row();
  }
  c.print(std::cout);
  bobs.emit();
  std::cout << "shape: without helping, retries explode under fine-grained "
               "interleaving (stickiness 0) and relax only when updates come "
               "in bursts; the wait-free scan costs exactly 1.0 'attempt' "
               "always (E4/E5).\n";
  std::cout << "\nE8 done.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
