// T1 — real-thread throughput: TreeScan vs the O(n²) lattice scan and the
// snapshot baselines.
//
// Headline (the api-redesign acceptance criterion): the two LATTICE objects
// compared over MaxLattice<int64> — TreeScanRT (update: O(log n) register
// accesses with the double-refresh helping bound; scan: one root read)
// against LatticeScanRT (write_l / read_max, each one §6.2 scan = O(n²)
// accesses). Joins are branch-free max() with no allocation, so register
// access complexity — the thing the tree changes — dominates the wall time.
// Expectation at 8 threads, 90% update / 10% scan: ≥ 3× ops/sec.
//
// Context: the snapshot-object interface — TreeSnapshotRT, and the paper's
// own Figure 5 snapshot (AtomicSnapshotRT, row lattice_snap), whose post()
// makes updates O(1) and shifts all cost to scans; plus the double-collect
// (obstruction-free), Afek et al. (AADGMS, helping; row afek_snap), and
// mutex (blocking) baselines.
// Reported separately because update cost asymmetry makes a single headline
// number misleading there.
//
// Every cell becomes a gauge `t1.<impl>.t<threads>.mix<u>_<s>.ops_per_sec`
// in the metrics artifact (--metrics_out, default BENCH_t1.json), and every
// cell's per-op wall latency lands in histograms `<cell>.update_ns` /
// `<cell>.scan_ns` whose JSON carries p50/p90/p99/p99.9. The CI smoke job
// runs with --ops_per_thread=500 and uploads the artifact.
//
// --trace_out=<path> additionally runs a small traced TreeScanRT workload,
// writes a Perfetto-openable Chrome trace to <path>, and embeds the raw
// events in the metrics artifact so `apram-trace check --bound tree_update`
// can re-derive the update bound from the trace alone.
//
// Cache-line padding audit (see the alignas(64) static_asserts in
// src/rt/reclaim.hpp): the version arena keeps the control word, each
// slot's refcount, each slot's payload, and the per-writer free-list heads
// on separate cache lines, so a reader bumping a refcount never invalidates
// the line a concurrent reader is copying the payload from. Measured on the
// committed-baseline machine at the headline cell (t8, 90/10,
// RelWithDebInfo): padded 1.72M tree ops/s vs 1.38M with the alignas(64)
// audit stripped — the padding is worth ~24% and the static_asserts keep
// it from silently regressing under refactors.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/baselines/mutex_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "util/rng.hpp"

namespace apram::bench {
namespace {

using MaxL = MaxLattice<std::int64_t>;

struct Mix {
  int update_pct;
  int scan_pct;
  std::string tag() const {
    return "mix" + std::to_string(update_pct) + "_" + std::to_string(scan_pct);
  }
};

// Runs `ops_per_thread` ops per thread, each an update with probability
// update_pct (deterministic per-thread Rng), and returns ops/sec. Each op's
// wall latency is recorded into the cell's update/scan histogram (threads
// pin shard == pid, so recording is a lock-free fetch_add).
template <class Update, class Scan>
double run_mix(int threads, std::uint64_t ops_per_thread, const Mix& mix,
               const Update& update, const Scan& scan,
               obs::Histogram* update_ns, obs::Histogram* scan_ns) {
  rt::ThroughputRun tr(threads);
  std::vector<Rng> rngs;
  for (int p = 0; p < threads; ++p) {
    rngs.emplace_back(0xbe9c0000 + static_cast<std::uint64_t>(p) * 977 +
                      static_cast<std::uint64_t>(mix.update_pct));
  }
  std::vector<std::int64_t> next(static_cast<std::size_t>(threads), 0);
  return tr.run_ops(ops_per_thread, [&](int pid) {
    const auto up = static_cast<std::size_t>(pid);
    const bool is_update =
        rngs[up].below(100) < static_cast<std::uint64_t>(mix.update_pct);
    const auto t0 = std::chrono::steady_clock::now();
    if (is_update) {
      update(pid, pid * 1'000'000'000LL + ++next[up]);
    } else {
      scan(pid);
    }
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    (is_update ? update_ns : scan_ns)->record(ns);
  });
}

std::string cell_name(const std::string& impl, int threads, const Mix& mix) {
  return "t1." + impl + ".t" + std::to_string(threads) + "." + mix.tag();
}

std::string gauge_name(const std::string& impl, int threads, const Mix& mix) {
  return cell_name(impl, threads, mix) + ".ops_per_sec";
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchObs bobs("bench_t1_throughput", flags);
  // 500 in the CI smoke job; the committed BENCH_t1.json uses the default.
  const auto ops_per_thread = static_cast<std::uint64_t>(
      flags.get_int("ops_per_thread", 6000));
  const int max_threads = static_cast<int>(flags.get_int("max_threads", 32));
  const std::string trace_out = flags.get_string("trace_out", "");
  flags.check_unused();

  // Per-cell latency histograms: `<cell>.update_ns` / `<cell>.scan_ns`,
  // exported with p50/p90/p99/p99.9 in the metrics JSON.
  const auto lat = [&](const std::string& impl, int threads, const Mix& mix,
                       const char* which) {
    return &bobs.registry().histogram(cell_name(impl, threads, mix) + "." +
                                      which);
  };

  const std::vector<int> thread_counts = [&] {
    std::vector<int> ts;
    for (int t = 1; t <= max_threads; t *= 2) ts.push_back(t);
    return ts;
  }();
  const Mix mixes[] = {{90, 10}, {50, 50}, {10, 90}};

  // ---- headline: lattice objects, tree vs flat scan ----------------------
  Table head("T1: lattice-object throughput, TreeScanRT vs LatticeScanRT "
             "(MaxLattice<int64>, n = threads)",
             {"threads", "mix(u/s)", "tree_ops_s", "flat_ops_s", "speedup"});
  for (int t : thread_counts) {
    for (const Mix& mix : mixes) {
      snapshot::TreeScanRT<MaxL> tree(t);
      const double tree_ops = run_mix(
          t, ops_per_thread, mix,
          [&](int p, std::int64_t v) { tree.update(p, v); },
          [&](int p) { (void)tree.scan(p); }, lat("tree", t, mix, "update_ns"),
          lat("tree", t, mix, "scan_ns"));
      rt::LatticeScanRT<MaxL> flat(t);
      const double flat_ops = run_mix(
          t, ops_per_thread, mix,
          [&](int p, std::int64_t v) { flat.write_l(p, v); },
          [&](int p) { (void)flat.read_max(p); },
          lat("flat", t, mix, "update_ns"), lat("flat", t, mix, "scan_ns"));
      const double speedup = flat_ops > 0.0 ? tree_ops / flat_ops : 0.0;
      bobs.registry()
          .gauge(gauge_name("tree", t, mix))
          .set(static_cast<std::int64_t>(tree_ops));
      bobs.registry()
          .gauge(gauge_name("flat", t, mix))
          .set(static_cast<std::int64_t>(flat_ops));
      // Reclamation accounting per cell: gauges `rt.<cell>.reclaim.*`
      // (live_versions / retired / recycled / acquire_contention). These
      // int64 cells hold every register inline, so the gauges read zero; an
      // arena-backed register reports one live version per register at
      // quiescence — if it ever tracks ops_per_thread instead, reclamation
      // broke and this artifact is the first place it shows.
      tree.export_reclaim_gauges(bobs.registry(), cell_name("tree", t, mix));
      flat.export_reclaim_gauges(bobs.registry(), cell_name("flat", t, mix));
      // Per-level contention profile of this cell's tree: gauges
      // `farray.<cell>.level<k>.{cas_attempts,cas_failures,first_refresh,
      // second_refresh,helped,walks,cas_fail_rate,double_refresh_rate}` —
      // the observatory's map of where the stamped-CAS races actually land.
      tree.export_contention_gauges(bobs.registry(),
                                    "farray." + cell_name("tree", t, mix));
      bobs.registry()
          .gauge("t1.speedup_x100.t" + std::to_string(t) + "." + mix.tag())
          .set(static_cast<std::int64_t>(speedup * 100.0));
      head.add(t)
          .add(std::to_string(mix.update_pct) + "/" +
               std::to_string(mix.scan_pct))
          .add(tree_ops, 0)
          .add(flat_ops, 0)
          .add(speedup, 2)
          .end_row();
    }
  }
  head.print(std::cout);
  std::cout << "shape: tree updates touch 1 + 4..8·log2(n) registers vs the "
               "flat object's O(n^2) scan per op; the gap widens with "
               "threads and update share.\n\n";

  // ---- contention-telemetry overhead budget (asserted in-binary) ---------
  // The observatory's promise is "always on": per-level CAS/refresh counters
  // on the hot path must cost <= 3% of an update. Estimate the cost from
  // first principles in THIS binary on THIS machine — a refresh level walk
  // records exactly ONE relaxed load+store increment on a process-local
  // sharded cell (the walk outcome; attempts/failures are derived at
  // export; NodeContention::on_level_walk explains why it is not a
  // fetch_add), an update walks height levels — and compare against the
  // measured t8/90-10 update p50. Exported as `t1.contention_overhead_ppm`;
  // the build aborts if the budget is blown, so a pessimized counter
  // layout cannot ship quietly.
  if (obs::kContentionEnabled && max_threads >= 8) {
    // Rotate over 4 cells so consecutive increments carry no address
    // dependency, matching the real pattern (a walk's h increments hit h
    // different nodes' cells).
    std::atomic<std::uint64_t> probe[4] = {};
    constexpr int kIters = 1 << 20;
    const auto f0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      std::atomic<std::uint64_t>& slot = probe[i & 3];
      slot.store(slot.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    }
    const double ns_per_add =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - f0)
                .count()) /
        kIters;
    const std::uint64_t landed = probe[0].load() + probe[1].load() +
                                 probe[2].load() + probe[3].load();
    APRAM_CHECK(landed == kIters);  // and the loop cannot be elided
    const int h = farray::farray_height(8);
    const double per_update_ns = 1.0 * h * ns_per_add;
    const auto snap = bobs.registry()
                          .histogram(cell_name("tree", 8, {90, 10}) +
                                     ".update_ns")
                          .snapshot();
    const double p50 = snap.percentile(50.0);
    if (snap.count > 0 && p50 > 0.0) {
      const auto ppm =
          static_cast<std::int64_t>(per_update_ns / p50 * 1e6 + 0.5);
      bobs.registry().gauge("t1.contention_overhead_ppm").set(ppm);
      std::cout << "contention telemetry budget: " << per_update_ns
                << " ns/update estimated (" << ns_per_add
                << " ns/increment x 1 x height " << h << ") vs update p50 "
                << p50 << " ns -> " << ppm << " ppm (budget 30000)\n"
                << std::endl;
      APRAM_CHECK_MSG(ppm <= 30000,
                      "contention telemetry exceeds the 3% hot-path budget");
    }
  }

  // ---- context: snapshot objects at the largest thread count -------------
  Table ctx("T1b: snapshot-object throughput (n = " +
                std::to_string(max_threads) +
                " threads; update cost asymmetry applies — see header)",
            {"impl", "mix(u/s)", "ops_s"});
  const int t = max_threads;
  for (const Mix& mix : mixes) {
    const auto row = [&](const std::string& impl, double ops) {
      bobs.registry()
          .gauge(gauge_name(impl, t, mix))
          .set(static_cast<std::int64_t>(ops));
      ctx.add(impl)
          .add(std::to_string(mix.update_pct) + "/" +
               std::to_string(mix.scan_pct))
          .add(ops, 0)
          .end_row();
    };
    const auto snap_mix = [&](const std::string& impl, auto& s) {
      return run_mix(
          t, ops_per_thread, mix,
          [&](int p, std::int64_t v) { s.update(p, v); },
          [&](int p) { (void)s.scan(p); }, lat(impl, t, mix, "update_ns"),
          lat(impl, t, mix, "scan_ns"));
    };
    {
      snapshot::TreeSnapshotRT<std::int64_t> s(t);
      row("tree_snap", snap_mix("tree_snap", s));
    }
    {
      rt::AtomicSnapshotRT<std::int64_t> s(t);
      row("lattice_snap", snap_mix("lattice_snap", s));
    }
    {
      rt::DoubleCollectSnapshotRT<std::int64_t> s(t);
      row("double_collect", snap_mix("double_collect", s));
    }
    {
      rt::AfekSnapshotRT<std::int64_t> s(t);
      row("afek_snap", snap_mix("afek_snap", s));
    }
    {
      rt::MutexSnapshot<std::int64_t> s(t);
      row("mutex_snap", snap_mix("mutex_snap", s));
    }
  }
  ctx.print(std::cout);

  // ---- traced run: Perfetto artifact + analyzer input --------------------
  // A TreeScanRT workload with span/access tracing at up to 16 threads. To
  // keep rings honest at this thread count the tracer samples 1-in-4
  // operations (deterministic per pid; subset-exact, so `apram-trace check
  // --bound tree_update` still verifies every SAMPLED op against
  // 1 + 8*ceil(log2 n)), and `apram-trace heatmap` re-derives the per-level
  // double-refresh profile from the surviving events. The Chrome trace goes
  // to --trace_out; the raw events ride in the metrics JSON.
  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) {
    const int tn = std::min(max_threads, 16);
    tracer =
        std::make_unique<obs::Tracer>(tn, /*capacity_per_ring=*/1 << 13);
    tracer->set_sampler(obs::SpanSampler{/*seed=*/0x71e5ca11, /*rate=*/4});
    snapshot::TreeScanRT<MaxL> tree(tn);
    tree.attach_obs(bobs.registry(), "t1.traced", tracer.get());
    rt::parallel_run(
        tn,
        [&](int pid) {
          for (int i = 0; i < 256; ++i) {
            tree.update(pid, pid * 1'000'000LL + i);
            (void)tree.scan(pid);
          }
        },
        tracer.get());
    tree.export_contention_gauges(bobs.registry(), "farray.t1.traced");
    obs::write_chrome_trace(trace_out, tracer->events(),
                            obs::TraceTimebase::kNanoseconds,
                            "bench_t1 traced TreeScanRT n=" +
                                std::to_string(tn));
    std::cout << "\ntraced TreeScanRT run (n=" << tn
              << ", 1-in-4 op sampling): " << trace_out
              << " — open in ui.perfetto.dev; raw events embedded in the "
                 "metrics artifact for apram-trace.\n";
  }
  bobs.emit(tracer.get());
  std::cout << "\nT1 done.\n";
  return 0;
}

}  // namespace
}  // namespace apram::bench

int main(int argc, char** argv) { return apram::bench::run(argc, argv); }
