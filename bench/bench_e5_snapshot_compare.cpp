// E5 — snapshot algorithm comparison (ours vs the §2 comparators).
//
// Claims reproduced:
//   * Our scan is wait-free with a fixed n²−1-read cost; the double-collect
//     baseline is only obstruction-free — an adversarial updater starves it
//     (retries grow without bound), while our cost is flat.
//   * The AADGMS snapshot [2] has "time complexity comparable to ours":
//     wait-free, O(n²) reads, but with retry variance and embedded-scan
//     update costs; our update is a single write.
//   * Against a blocking (mutex) snapshot on real threads, the wait-free
//     algorithms pay a constant-factor throughput cost when nothing goes
//     wrong — the price of progress guarantees.
//
// Tables: (a) simulator step counts per scan/update under increasing
// adversarial update pressure; (b) real-thread throughput of update/scan
// mixes for ours vs double-collect vs mutex.
#include <chrono>

#include "bench_common.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/baselines/mutex_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"

namespace apram::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_e5_snapshot_compare", flags);
  const auto window_ms = flags.get_int("window_ms", 80);
  flags.check_unused();

  // ---- (a) simulator: scanner cost vs adversarial update pressure -------
  Table sim_table(
      "E5a: scanner reads to complete one scan vs update pressure (n=4; 0 = "
      "starved, never completed)",
      {"updates/read", "ours(wait-free)", "double-collect", "afek(AADGMS)"});

  const int n = 4;
  for (int pressure : {0, 1, 2, 4}) {
    sim::World w1(n);
    AtomicSnapshotSim<int> ours(w1, n);
    bool ours_done = false;
    w1.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      (void)co_await ours.scan(ctx);
      ours_done = true;
    });
    w1.spawn(1, [&](sim::Context ctx) -> sim::ProcessTask {
      for (int i = 0; i < 200'000; ++i) co_await ours.update(ctx, i);
    });
    std::vector<int> schedule;
    while (schedule.size() < 100'000) {
      schedule.push_back(0);
      for (int j = 0; j < pressure; ++j) schedule.push_back(1);
    }
    sim::FixedScheduler s1(schedule);
    w1.run_steps(s1, 100'000);
    const std::uint64_t ours_reads = ours_done ? w1.counts(0).reads : 0;

    sim::World w2(n);
    DoubleCollectSnapshotSim<int> dc(w2, n);
    bool dc_done = false;
    w2.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      const auto v = co_await dc.scan(ctx, /*max_attempts=*/5000);
      dc_done = v.has_value();
    });
    w2.spawn(1, [&](sim::Context ctx) -> sim::ProcessTask {
      for (int i = 0; i < 200'000; ++i) co_await dc.update(ctx, i);
    });
    sim::FixedScheduler s2(schedule);
    w2.run_steps(s2, 100'000);
    const std::uint64_t dc_reads = dc_done ? w2.counts(0).reads : 0;

    sim::World w3(n);
    AfekSnapshotSim<int> afek(w3, n);
    bool afek_done = false;
    w3.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      (void)co_await afek.scan(ctx);
      afek_done = true;
    });
    w3.spawn(1, [&](sim::Context ctx) -> sim::ProcessTask {
      for (int i = 0; i < 200'000; ++i) co_await afek.update(ctx, i);
    });
    sim::FixedScheduler s3(schedule);
    w3.run_steps(s3, 100'000);
    const std::uint64_t afek_reads = afek_done ? w3.counts(0).reads : 0;

    sim_table.add(pressure)
        .add(ours_reads)
        .add(dc_reads)
        .add(afek_reads)
        .end_row();
  }
  sim_table.print(std::cout);
  std::cout << "shape: ours is flat at n^2-1 = " << (n * n - 1)
            << " reads regardless of pressure; double-collect grows and then "
               "starves; AADGMS stays bounded via helping.\n";

  // ---- (b) update costs ---------------------------------------------------
  Table upd("E5b: update cost (solo, simulator steps)",
            {"algorithm", "reads", "writes"});
  {
    sim::World w(n);
    AtomicSnapshotSim<int> snap(w, n);
    w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await snap.update(ctx, 1);
    });
    w.run_solo(0);
    upd.add("ours").add(w.counts(0).reads).add(w.counts(0).writes).end_row();
  }
  {
    sim::World w(n);
    DoubleCollectSnapshotSim<int> snap(w, n);
    w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await snap.update(ctx, 1);
    });
    w.run_solo(0);
    upd.add("double-collect")
        .add(w.counts(0).reads)
        .add(w.counts(0).writes)
        .end_row();
  }
  {
    sim::World w(n);
    AfekSnapshotSim<int> snap(w, n);
    w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await snap.update(ctx, 1);
    });
    w.run_solo(0);
    upd.add("afek (embedded scan)")
        .add(w.counts(0).reads)
        .add(w.counts(0).writes)
        .end_row();
  }
  upd.print(std::cout);

  // ---- (c) real threads: throughput of a mixed workload ------------------
  Table rt_table("E5c: real-thread ops/sec (1 scanner + n-1 updaters)",
                 {"n", "algorithm", "ops_per_sec"});
  for (int threads : {2, 4}) {
    {
      rt::AtomicSnapshotRT<std::int64_t> snap(threads);
      snap.attach_obs(bobs.registry(),
                      "e5c.ours.t" + std::to_string(threads));
      rt::ThroughputRun tr(threads);
      const double rate =
          tr.run(std::chrono::milliseconds(window_ms), [&](int pid) {
            if (pid == 0) {
              (void)snap.scan(pid);
            } else {
              snap.update(pid, pid);
            }
          });
      tr.export_metrics(bobs.registry(),
                        "e5c.ours.t" + std::to_string(threads));
      rt_table.add(threads).add("ours").add(rate, 0).end_row();
    }
    {
      rt::DoubleCollectSnapshotRT<std::int64_t> snap(threads);
      rt::ThroughputRun tr(threads);
      const double rate =
          tr.run(std::chrono::milliseconds(window_ms), [&](int pid) {
            if (pid == 0) {
              (void)snap.scan(pid);
            } else {
              snap.update(pid, pid);
            }
          });
      rt_table.add(threads).add("double-collect").add(rate, 0).end_row();
    }
    {
      rt::MutexSnapshot<std::int64_t> snap(threads);
      rt::ThroughputRun tr(threads);
      const double rate =
          tr.run(std::chrono::milliseconds(window_ms), [&](int pid) {
            if (pid == 0) {
              (void)snap.scan(pid);
            } else {
              snap.update(pid, pid);
            }
          });
      rt_table.add(threads).add("mutex(blocking)").add(rate, 0).end_row();
    }
  }
  rt_table.print(std::cout);
  bobs.emit();
  std::cout << "\nE5 done. shape: wait-free scan cost flat under adversarial "
               "pressure; double-collect starves; blocking baseline fastest "
               "only because nothing fails here.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
