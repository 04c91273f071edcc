// Tests for apram::obs — the offline trace analyzer (obs/analyze.hpp) that
// re-derives the paper's per-operation bounds from span-tagged traces, and
// the `events` JSON loader the apram-trace CLI feeds it with.
//
// The point of these tests: the bound checks must pass on REAL traces of the
// real algorithms (not hand-built fixtures) at several n, must count §6.2's
// closed forms exactly, and must FAIL when the trace is padded with extra
// accesses — a checker that cannot reject a bad trace verifies nothing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/sim_backend.hpp"
#include "obs/analyze.hpp"
#include "obs/contention.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "objects/polylog_queue.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/tree_snapshot.hpp"

namespace apram::obs {
namespace {

using MaxL = MaxLattice<std::int64_t>;

// Runs every process through one optimized lattice Scan under a random
// schedule and returns the collected trace.
std::vector<TraceEvent> traced_scans(int n, std::uint64_t seed) {
  Tracer tracer(n, 1 << 12);
  sim::World w(n, {.tracer = &tracer});
  LatticeScanSim<MaxL> ls(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&ls, pid](sim::Context ctx) -> sim::ProcessTask {
      (void)co_await ls.scan(ctx, pid);
    });
  }
  sim::RandomScheduler rs(seed);
  APRAM_CHECK(w.run(rs).all_done);
  return tracer.events();
}

// Runs every process through one TreeScan update + one scan.
std::vector<TraceEvent> traced_tree_ops(int n, std::uint64_t seed) {
  Tracer tracer(n, 1 << 12);
  sim::World w(n, {.tracer = &tracer});
  snapshot::TreeScan<api::SimBackend, MaxL> tree(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&tree, pid](sim::Context ctx) -> sim::ProcessTask {
      co_await tree.update(ctx, 100 + pid);
      (void)co_await tree.scan(ctx);
    });
  }
  sim::RandomScheduler rs(seed);
  APRAM_CHECK(w.run(rs).all_done);
  return tracer.events();
}

// ------------------------------------------------------------- op recovery --

TEST(Analyze, RecoversExactScanCountsFromTheTraceAlone) {
  const int n = 4;
  const auto analysis = analyze(traced_scans(n, /*seed=*/3));
  EXPECT_EQ(analysis.num_pids, n);
  EXPECT_EQ(analysis.truncated_ops, 0u);
  EXPECT_EQ(analysis.open_ops, 0u);

  const auto scans = analysis.complete_of(OpKind::kScan);
  ASSERT_EQ(scans.size(), static_cast<std::size_t>(n));
  for (const OpStats* op : scans) {
    // §6.2 optimized closed forms, re-derived from span-tagged events with
    // no help from World::counts: n²−1 reads, n+1 writes.
    EXPECT_EQ(op->reads, static_cast<std::uint64_t>(n * n - 1));
    EXPECT_EQ(op->writes, static_cast<std::uint64_t>(n + 1));
    EXPECT_EQ(op->cas_ops, 0u);
    EXPECT_EQ(op->phases, static_cast<std::uint64_t>(n + 1));
    EXPECT_TRUE(op->complete());
    EXPECT_LT(op->begin, op->end);
  }
}

TEST(Analyze, FindAndUntaggedAccessesBehave) {
  const std::vector<TraceEvent> evs = {
      {1, 0, EventKind::kOpBegin, -1,
       static_cast<std::uint64_t>(OpKind::kUser), 5},
      {2, 0, EventKind::kRead, 0, 0, 5},
      {3, 0, EventKind::kRead, 0, 0, 0},  // outside any span
      {4, 0, EventKind::kOpEnd, -1,
       static_cast<std::uint64_t>(OpKind::kUser), 5},
  };
  const auto a = analyze(evs);
  EXPECT_EQ(a.untagged_accesses, 1u);
  ASSERT_NE(a.find(5), nullptr);
  EXPECT_EQ(a.find(5)->reads, 1u);
  EXPECT_EQ(a.find(99), nullptr);
}

// ------------------------------------------------------------ bound checks --

TEST(Analyze, ScanBoundHoldsAtSeveralN) {
  for (int n : {2, 4, 8}) {
    const auto analysis = analyze(traced_scans(n, /*seed=*/7 + n));
    const auto report = check_scan_bound(analysis, n);
    EXPECT_TRUE(report.ok()) << format_report(report);
    EXPECT_EQ(report.checked, static_cast<std::uint64_t>(n)) << "n=" << n;
    EXPECT_EQ(report.excluded, 0u);
    EXPECT_EQ(report.formula, bound_formula("scan"));
  }
}

TEST(Analyze, TreeBoundsHoldAtSeveralN) {
  for (int n : {2, 4, 8}) {
    const auto analysis = analyze(traced_tree_ops(n, /*seed=*/11 + n));
    const auto update = check_tree_update_bound(analysis, n);
    EXPECT_TRUE(update.ok()) << format_report(update);
    EXPECT_EQ(update.checked, static_cast<std::uint64_t>(n)) << "n=" << n;
    const auto scan = check_tree_scan_bound(analysis);
    EXPECT_TRUE(scan.ok()) << format_report(scan);
    EXPECT_EQ(scan.checked, static_cast<std::uint64_t>(n)) << "n=" << n;
  }
}

TEST(Analyze, NDefaultsToTheTracesPidCount) {
  const int n = 4;
  const auto analysis = analyze(traced_scans(n, /*seed=*/23));
  const auto report = check_scan_bound(analysis);  // n not supplied
  EXPECT_TRUE(report.ok()) << format_report(report);
  EXPECT_EQ(report.checked, static_cast<std::uint64_t>(n));
}

// The negative control: a trace padded with extra tagged reads must FAIL the
// §6.2 bound. The real scans sit exactly at n²−1, so one forged read tips
// one op over.
TEST(Analyze, PaddedTraceFailsTheScanBound) {
  const int n = 4;
  auto events = traced_scans(n, /*seed=*/5);
  std::uint64_t victim = 0;
  for (const auto& ev : events) {
    if (ev.kind == EventKind::kOpBegin &&
        static_cast<OpKind>(ev.arg) == OpKind::kScan) {
      victim = ev.op;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  events.push_back({events.back().when + 1, 0, EventKind::kRead, 0, 0,
                    victim});

  const auto report = check_scan_bound(analyze(events), n);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].op, victim);
  EXPECT_NE(format_report(report).find("FAIL"), std::string::npos);
}

TEST(Analyze, TruncatedAndOpenOpsAreExcludedNotChecked) {
  const auto scan_arg = static_cast<std::uint64_t>(OpKind::kScan);
  const std::vector<TraceEvent> evs = {
      // Op 1: truncated (marker, no surviving begin) — 1 read survived of
      // an unknown total; counting it would silently under-check.
      {1, 0, EventKind::kTruncated, -1, 0, 1},
      {2, 0, EventKind::kRead, 0, 0, 1},
      {3, 0, EventKind::kOpEnd, -1, scan_arg, 1},
      // Op 2: begun, never ended (crashed mid-op).
      {4, 1, EventKind::kOpBegin, -1, scan_arg, 2},
      {5, 1, EventKind::kRead, 0, 0, 2},
  };
  const auto a = analyze(evs);
  EXPECT_EQ(a.truncated_ops, 1u);
  EXPECT_EQ(a.open_ops, 1u);
  const auto report = check_scan_bound(a, 2);
  EXPECT_TRUE(report.ok());  // vacuous: nothing eligible…
  EXPECT_EQ(report.checked, 0u);
  EXPECT_EQ(report.excluded, 2u);  // …and both exclusions are reported
}

TEST(Analyze, AgreementBoundChecksOutputOps) {
  const auto out_arg = static_cast<std::uint64_t>(OpKind::kOutput);
  std::vector<TraceEvent> evs = {
      {1, 0, EventKind::kOpBegin, -1, out_arg, 1},
  };
  for (std::uint64_t i = 0; i < 10; ++i) {
    evs.push_back({2 + i, 0, EventKind::kRead, 0, 0, 1});
  }
  evs.push_back({20, 0, EventKind::kOpEnd, -1, out_arg, 1});
  // Theorem 5 with n=2, log2(Δ/ε)=3: (2n+1)(log_ratio+3) + 8n = 46.
  const auto ok = check_agreement_bound(analyze(evs), /*log_ratio=*/3.0,
                                        /*n=*/2);
  EXPECT_TRUE(ok.ok()) << format_report(ok);
  EXPECT_EQ(ok.checked, 1u);

  for (std::uint64_t i = 0; i < 40; ++i) {  // now 50 accesses > 46
    evs.insert(evs.end() - 1, {12 + i, 0, EventKind::kRead, 0, 0, 1});
  }
  const auto bad = check_agreement_bound(analyze(evs), /*log_ratio=*/3.0,
                                         /*n=*/2);
  EXPECT_FALSE(bad.ok());
}

TEST(Analyze, BoundFormulaNamesAreStable) {
  // The CLI requires --bound name=formula to match these strings exactly —
  // they are the contract between CI invocations and the analyzer.
  EXPECT_EQ(bound_formula("scan"), "n^2-1");
  EXPECT_EQ(bound_formula("tree_update"), "1+8ceil(log2n)");
  EXPECT_EQ(bound_formula("tree_scan"), "1");
  EXPECT_EQ(bound_formula("agreement"), "(2n+1)(log2(delta/eps)+3)+8n");
  EXPECT_EQ(bound_formula("queue_op"), "clog2n");
  EXPECT_EQ(bound_formula("nope"), "");
}

TEST(Analyze, QueueOpBoundHoldsOnRealTracedRuns) {
  for (int n : {2, 4, 8}) {
    Tracer tracer(n, 1 << 12);
    sim::World w(n, {.tracer = &tracer});
    PolylogQueue<api::SimBackend> q(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&q, pid](sim::Context ctx) -> sim::ProcessTask {
        co_await q.enqueue(ctx, pid * 10);
        (void)co_await q.dequeue(ctx);
      });
    }
    sim::RandomScheduler rs(/*seed=*/17 + n);
    APRAM_CHECK(w.run(rs).all_done);

    const auto a = analyze(tracer.events());
    const auto report = check_queue_op_bound(a, n);
    EXPECT_TRUE(report.ok()) << "n=" << n << ": " << format_report(report);
    // One enqueue and one dequeue per process must have been checked.
    EXPECT_EQ(report.checked, static_cast<std::uint64_t>(2 * n));
    EXPECT_EQ(report.formula, bound_formula("queue_op"));
  }
}

// --------------------------------------------------------------- JSON load --

TEST(Analyze, LoadEventsJsonRoundTripsThroughTheMetricsArtifact) {
  const int n = 4;
  Registry reg;
  Tracer tracer(n, 1 << 12);
  {
    sim::World w(n, {.tracer = &tracer});
    LatticeScanSim<MaxL> ls(w, n);
    for (int pid = 0; pid < n; ++pid) {
      w.spawn(pid, [&ls, pid](sim::Context ctx) -> sim::ProcessTask {
        (void)co_await ls.scan(ctx, pid);
      });
    }
    sim::RandomScheduler rs(2);
    APRAM_CHECK(w.run(rs).all_done);
  }
  const std::string path = "analyze_test.metrics.json";
  write_metrics_json(path, reg, &tracer, "analyze_test");

  const MetricsDoc doc = load_metrics_json(path);
  ASSERT_TRUE(doc.events.has_value());
  const std::vector<TraceEvent>& loaded = *doc.events;
  const auto direct = tracer.events();
  ASSERT_EQ(loaded.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(loaded[i].when, direct[i].when);
    EXPECT_EQ(loaded[i].pid, direct[i].pid);
    EXPECT_EQ(loaded[i].kind, direct[i].kind);
    EXPECT_EQ(loaded[i].object, direct[i].object);
    EXPECT_EQ(loaded[i].arg, direct[i].arg);
    EXPECT_EQ(loaded[i].op, direct[i].op);
  }

  // End-to-end: the artifact round-trip still satisfies the §6.2 bound.
  const auto report = check_scan_bound(analyze(loaded), n);
  EXPECT_TRUE(report.ok()) << format_report(report);
  EXPECT_EQ(report.checked, static_cast<std::uint64_t>(n));
  std::remove(path.c_str());
}

TEST(Analyze, MetricsJsonHasEventsProbesTheArtifactShape) {
  Registry reg;
  reg.counter("x").add(1);
  Tracer tracer(1, 8);
  tracer.emit({1, 0, EventKind::kUser, 0, 0});

  const std::string with = "analyze_test.with_events.json";
  const std::string without = "analyze_test.without_events.json";
  write_metrics_json(with, reg, &tracer, "probe");
  write_metrics_json(without, reg, nullptr, "probe");
  // Telling the two apart is what lets apram-trace fall back to
  // gauge-derived analysis instead of aborting on tracer-less artifacts
  // (BENCH_t1.json et al.).
  const MetricsDoc with_doc = load_metrics_json(with);
  ASSERT_TRUE(with_doc.events.has_value());
  EXPECT_EQ(with_doc.events->size(), 1u);
  EXPECT_EQ(with_doc.counters.at("x"), 1u);
  const MetricsDoc without_doc = load_metrics_json(without);
  EXPECT_FALSE(without_doc.events.has_value());
  EXPECT_EQ(without_doc.counters.at("x"), 1u);
  std::remove(with.c_str());
  std::remove(without.c_str());
}

TEST(Analyze, LoadMetricsJsonReadsCountersGaugesAndHistograms) {
  Registry reg;
  reg.counter("ops.total").add(42);
  reg.gauge("depth").set(-3);
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const std::string path = "analyze_test.doc.json";
  write_metrics_json(path, reg, nullptr, "doc-test");

  const MetricsDoc doc = load_metrics_json(path);
  EXPECT_EQ(doc.name, "doc-test");
  EXPECT_EQ(doc.counters.at("ops.total"), 42u);
  EXPECT_EQ(doc.gauges.at("depth"), -3);
  const auto& lat = doc.histograms.at("lat");
  EXPECT_EQ(lat.count, 100u);
  EXPECT_EQ(lat.sum, 5050u);
  EXPECT_NEAR(lat.mean, 50.5, 0.01);
  EXPECT_GT(lat.p99, lat.p50);
  std::remove(path.c_str());
}

// ------------------------------------------------------ heatmap/help graph --

TEST(Analyze, HeatmapClassifiesWalkOutcomesFromSyntheticEvents) {
  const auto upd = static_cast<std::uint64_t>(OpKind::kTreeUpdate);
  const auto refresh = static_cast<std::uint64_t>(Phase::kRefresh);
  const std::vector<TraceEvent> evs = {
      // Op 1 (pid 0): level 0 installs first-try on register 10; level 1
      // loses once then installs on register 11 (a second refresh).
      {1, 0, EventKind::kOpBegin, -1, upd, 1},
      {2, 0, EventKind::kPhase, 0, refresh, 1},
      {3, 0, EventKind::kCas, 10, 1, 1},
      {4, 0, EventKind::kPhase, 1, refresh, 1},
      {5, 0, EventKind::kCas, 11, 0, 1},
      {6, 0, EventKind::kCas, 11, 1, 1},
      {7, 0, EventKind::kOpEnd, -1, upd, 1},
      // Op 2 (pid 1): level 1 loses both attempts — fully helped.
      {8, 1, EventKind::kOpBegin, -1, upd, 2},
      {9, 1, EventKind::kPhase, 1, refresh, 2},
      {10, 1, EventKind::kCas, 11, 0, 2},
      {11, 1, EventKind::kCas, 11, 0, 2},
      {12, 1, EventKind::kHelp, 11, 0, 2},
      {13, 1, EventKind::kOpEnd, -1, upd, 2},
  };
  const ContentionHeatmap hm = contention_heatmap(evs);
  ASSERT_EQ(hm.levels.size(), 2u);
  EXPECT_EQ(hm.refresh_ops, 2u);
  EXPECT_EQ(hm.levels[0].first_refresh, 1u);
  EXPECT_EQ(hm.levels[0].cas_attempts, 1u);
  EXPECT_EQ(hm.levels[0].cas_failures, 0u);
  EXPECT_EQ(hm.levels[1].second_refresh, 1u);
  EXPECT_EQ(hm.levels[1].helped, 1u);
  EXPECT_EQ(hm.levels[1].cas_attempts, 4u);
  EXPECT_EQ(hm.levels[1].cas_failures, 3u);
  // Per-node rows keyed by the CAS target's register id.
  EXPECT_EQ(hm.nodes.at(10).first_refresh, 1u);
  EXPECT_EQ(hm.nodes.at(11).walks(), 2u);
  EXPECT_EQ(hm.node_level.at(11), 1);
  // Level 1's double-refresh rate (100%) dominates level 0's (0%).
  EXPECT_EQ(hm.peak_level(), 1);
}

TEST(Analyze, HeatmapCrossChecksTheOnlineContentionCounters) {
  // The same first/second/helped split, derived two independent ways — from
  // the trace's refresh-phase grammar and from the NodeContention counters
  // the tree bumps online — must agree level by level at quiescence.
  const int n = 8;
  constexpr int kOpsPerPid = 8;
  Tracer tracer(n, 1 << 14);
  sim::World w(n, {.tracer = &tracer});
  snapshot::TreeScan<api::SimBackend, MaxL> tree(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&tree, pid](sim::Context ctx) -> sim::ProcessTask {
      for (int i = 0; i < kOpsPerPid; ++i) {
        co_await tree.update(ctx, pid * 100 + i);
      }
    });
  }
  sim::RandomScheduler rs(/*seed=*/29);
  APRAM_CHECK(w.run(rs).all_done);
  ASSERT_EQ(tracer.dropped(), 0u);

  const ContentionHeatmap hm = contention_heatmap(tracer.events());
  EXPECT_EQ(hm.refresh_ops,
            static_cast<std::uint64_t>(n) * kOpsPerPid);
  if (!kContentionEnabled) return;  // the online half is compiled out
  const NodeContention& online = tree.contention();
  ASSERT_EQ(static_cast<int>(hm.levels.size()), online.num_levels());
  for (std::size_t lvl = 0; lvl < hm.levels.size(); ++lvl) {
    const ContentionTotals a = hm.levels[lvl];
    const ContentionTotals b = online.level_totals(static_cast<int>(lvl));
    EXPECT_EQ(a.first_refresh, b.first_refresh) << "level " << lvl;
    EXPECT_EQ(a.second_refresh, b.second_refresh) << "level " << lvl;
    EXPECT_EQ(a.helped, b.helped) << "level " << lvl;
    // The online side DERIVES attempts/failures from outcomes under the
    // double-refresh lemma; the trace COUNTS real kCas events. Equality here
    // is the executed-code proof of the lemma's (1,0)/(2,1)/(2,2) table.
    EXPECT_EQ(a.cas_attempts, b.cas_attempts) << "level " << lvl;
    EXPECT_EQ(a.cas_failures, b.cas_failures) << "level " << lvl;
  }
}

TEST(Analyze, HelpGraphCountsU2EdgesAndIgnoresFarrayHelps) {
  const auto exec = static_cast<std::uint64_t>(OpKind::kU2Execute);
  const auto upd = static_cast<std::uint64_t>(OpKind::kTreeUpdate);
  const std::vector<TraceEvent> evs = {
      // Op 1 (pid 0): a u2 op that helped pids 1 and 2.
      {1, 0, EventKind::kOpBegin, -1, exec, 1},
      {2, 0, EventKind::kHelp, 1, 0, 1},
      {3, 0, EventKind::kHelp, 2, 0, 1},
      {4, 0, EventKind::kOpEnd, -1, exec, 1},
      // Op 2 (pid 1): helped pid 2.
      {5, 1, EventKind::kOpBegin, -1, exec, 2},
      {6, 1, EventKind::kHelp, 2, 0, 2},
      {7, 1, EventKind::kOpEnd, -1, exec, 2},
      // Op 3 (pid 2): a farray update; its kHelp carries a tree NODE id in
      // `object`, not a pid — must not become an edge.
      {8, 2, EventKind::kOpBegin, -1, upd, 3},
      {9, 2, EventKind::kHelp, 5, 0, 3},
      {10, 2, EventKind::kOpEnd, -1, upd, 3},
  };
  const HelpGraph g = help_graph(evs);
  EXPECT_EQ(g.ops_seen, 2u);
  EXPECT_EQ(g.total_helps, 3u);
  EXPECT_EQ(g.num_pids, 3);
  EXPECT_EQ(g.edges.at({0, 1}), 1u);
  EXPECT_EQ(g.edges.at({0, 2}), 1u);
  EXPECT_EQ(g.edges.at({1, 2}), 1u);
  EXPECT_EQ(g.max_distinct_helped, 2u);
  EXPECT_EQ(g.given(0), 2u);
  EXPECT_EQ(g.received(2), 2u);
  EXPECT_EQ(g.given(2), 0u);
}

TEST(AnalyzeDeath, LoadAbortsOnGarbageAndMissingFiles) {
  const std::string path = "analyze_test.garbage.json";
  {
    std::ofstream out(path);
    out << "{ \"name\": \"no events key here\" }";
  }
  EXPECT_DEATH((void)load_metrics_json(path), "");
  EXPECT_DEATH((void)load_metrics_json("analyze_test.does_not_exist.json"),
               "");
  std::remove(path.c_str());

  // A well-formed artifact exported without a tracer loads, but asking it
  // for a trace aborts.
  const std::string bare = "analyze_test.no_events.json";
  write_metrics_json(bare, Registry{}, nullptr, "bare");
  const MetricsDoc doc = load_metrics_json(bare);
  EXPECT_DEATH((void)doc.trace(), "no \"events\" array");
  std::remove(bare.c_str());
}

}  // namespace
}  // namespace apram::obs
