// Tests for apram::obs — metrics registry, event tracer, exporters, and the
// record → schedule → replay loop behind sim replay artifacts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "api/sim_backend.hpp"
#include "obs/analyze.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/contention.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/replay_artifact.hpp"
#include "obs/rt_probe.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "sim/replay.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/tree_snapshot.hpp"

namespace apram::obs {
namespace {

// ---------------------------------------------------------------- metrics --

TEST(Metrics, CounterStartsAtZeroAndAddsUp) {
  Registry reg;
  Counter& c = reg.counter("x");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, RegistryReturnsSameHandleForSameName) {
  Registry reg;
  Counter& a = reg.counter("shared");
  Counter& b = reg.counter("shared");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, ConcurrentIncrementsAggregateExactly) {
  Registry reg;
  Counter& c = reg.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c, t] {
      set_thread_identity(t, nullptr);
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  // Exact, not approximate: every relaxed add lands on some shard and
  // value() sums all shards after the joins' happens-before edges.
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeSetAndAdd) {
  Registry reg;
  Gauge& g = reg.gauge("level");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Metrics, HistogramBucketsAndMean) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  h.record(1);
  h.record(2);
  h.record(3);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 6u);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
}

TEST(Metrics, KindCollisionAborts) {
  Registry reg;
  reg.counter("name");
  EXPECT_DEATH(reg.gauge("name"), "");
}

TEST(Metrics, ClampedPinKeepsTotalsExact) {
  // Pids ≥ kMaxShards clamp modulo kMaxShards: threads 1 and kMaxShards+1
  // share a shard, per-shard attribution blurs, but the aggregated total
  // must stay exact.
  Registry reg;
  Counter& c = reg.counter("clamped");
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> ts;
  for (int pid : {1, kMaxShards + 1, 2 * kMaxShards + 1}) {
    ts.emplace_back([&c, pid] {
      set_thread_identity(pid, nullptr);
      EXPECT_EQ(this_shard(), 1);
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), 3u * kPerThread);
}

// ------------------------------------------------------------------ trace --

TEST(Trace, RecordsEventsInOrder) {
  Tracer tr(2, 16);
  tr.emit({1, 0, EventKind::kRead, 7, 0});
  tr.emit({2, 1, EventKind::kWrite, 8, 0});
  tr.emit({3, 0, EventKind::kCas, 9, 1});
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].kind, EventKind::kRead);
  EXPECT_EQ(evs[1].pid, 1);
  EXPECT_EQ(evs[2].arg, 1u);
  EXPECT_EQ(tr.recorded(), 3u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Trace, OverflowKeepsNewestEvents) {
  constexpr std::size_t kCap = 8;
  Tracer tr(1, kCap);
  for (std::uint64_t i = 0; i < 3 * kCap; ++i) {
    tr.emit({i, 0, EventKind::kUser, 0, i});
  }
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), kCap);
  // The oldest 2*kCap events were overwritten; the newest kCap survive.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(evs[i].arg, 2 * kCap + i);
  }
  EXPECT_EQ(tr.recorded(), 3 * kCap);
  EXPECT_EQ(tr.dropped(), 2 * kCap);
}

TEST(Trace, DrainResetsRingsButKeepsTotals) {
  Tracer tr(1, 8);
  tr.emit({1, 0, EventKind::kUser, 0, 0});
  EXPECT_EQ(tr.drain().size(), 1u);
  EXPECT_TRUE(tr.events().empty());
  tr.emit({2, 0, EventKind::kUser, 0, 0});
  EXPECT_EQ(tr.events().size(), 1u);
  EXPECT_EQ(tr.recorded(), 2u);
}

// -------------------------------------------------------------- sim hooks --

// Record a traced 3-process run's schedule, round-trip it through the
// artifact format, and replay it via sim/replay: the replayed run is
// step-identical, and so is its trace.
TEST(SimObs, TraceOfThreeProcessRunReplaysIdentically) {
  struct Run : sim::Execution {
    Run(int n, obs::Tracer* t) : w(n, {.tracer = t}), snap(w, n) {}
    sim::World& world() override { return w; }
    sim::World w;
    AtomicSnapshotSim<int> snap;
    std::vector<int> scans;
  };
  const int n = 3;
  // The tracer is construction-time configuration (World::Options), so the
  // factory is parameterized by it; replay paths pass nullptr.
  auto make = [n](obs::Tracer* t) -> std::unique_ptr<sim::Execution> {
    auto run = std::make_unique<Run>(n, t);
    Run* r = run.get();
    for (int pid = 0; pid < n; ++pid) {
      r->w.spawn(pid, [r, pid](sim::Context ctx) -> sim::ProcessTask {
        co_await r->snap.update(ctx, pid + 1);
        const auto view = co_await r->snap.scan(ctx);
        std::int64_t sum = 0;
        for (const auto& v : view) sum += v.value_or(0);
        r->scans.push_back(static_cast<int>(sum));
      });
    }
    return run;
  };

  auto factory = [&make]() { return make(nullptr); };

  // Original run: random schedule, traced and recorded.
  Tracer tracer(n, 4096);
  auto orig = make(&tracer);
  sim::RandomScheduler random(/*seed=*/7, /*stickiness=*/0.5);
  sim::RecordingScheduler sched(random);
  ASSERT_TRUE(orig->world().run(sched).all_done);
  const auto events = tracer.events();
  EXPECT_EQ(tracer.dropped(), 0u);

  // Round-trip the recorded schedule through the text format.
  const std::vector<int>& schedule = sched.picks();
  std::stringstream ss;
  save_schedule(ss, schedule);
  const auto loaded = load_schedule(ss);
  ASSERT_EQ(loaded, schedule);

  // Replay through sim/replay: identical per-pid step counts and results.
  auto replayed_exec = sim::replay(factory, loaded);
  auto* replayed = static_cast<Run*>(replayed_exec.get());
  for (int pid = 0; pid < n; ++pid) {
    EXPECT_TRUE(replayed->w.done(pid));
    EXPECT_EQ(replayed->w.counts(pid).reads,
              orig->world().counts(pid).reads);
    EXPECT_EQ(replayed->w.counts(pid).writes,
              orig->world().counts(pid).writes);
  }
  EXPECT_EQ(replayed->scans, static_cast<Run*>(orig.get())->scans);

  // And the replayed run's own trace matches the original event-for-event.
  Tracer tracer2(n, 4096);
  auto traced_replay = make(&tracer2);
  sim::FixedScheduler fs(loaded);
  ASSERT_TRUE(traced_replay->world().run(fs).all_done);
  const auto events2 = tracer2.events();
  ASSERT_EQ(events2.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events2[i].when, events[i].when);
    EXPECT_EQ(events2[i].pid, events[i].pid);
    EXPECT_EQ(events2[i].kind, events[i].kind);
    EXPECT_EQ(events2[i].object, events[i].object);
  }
}

// --------------------------------------------------------------- rt hooks --

TEST(RtObs, ProbeCountsRegisterAccesses) {
  Registry reg;
  RtProbe probe{.reads = &reg.counter("r"),
                .writes = &reg.counter("w"),
                .cas_ops = &reg.counter("c"),
                .object = 0};
  rt::SWMRRegister<std::int64_t> r(0);
  r.attach_probe(&probe);
  r.write(9);
  EXPECT_EQ(r.read(), 9);
  EXPECT_EQ(r.read(), 9);
  EXPECT_EQ(reg.counter("r").value(), 2u);
  EXPECT_EQ(reg.counter("w").value(), 1u);

  rt::CASValueRegister<std::int64_t> cr(1, 0);
  cr.attach_probe(&probe);
  EXPECT_TRUE(cr.compare_exchange(0, /*expected=*/0, 5));
  EXPECT_FALSE(cr.compare_exchange(0, /*expected=*/0, 7));
  EXPECT_EQ(cr.read(), 5);
  EXPECT_EQ(reg.counter("c").value(), 2u);
}

TEST(RtObs, HarnessTracesSpawnAndDonePerThread) {
  Tracer tracer(4, 64);
  Registry reg;
  Counter& body_runs = reg.counter("body");
  rt::parallel_run(
      4,
      [&](int pid) {
        EXPECT_EQ(thread_pid(), pid);
        body_runs.add();
      },
      &tracer);
  EXPECT_EQ(body_runs.value(), 4u);
  const auto evs = tracer.events();
  int spawns = 0;
  int dones = 0;
  for (const auto& ev : evs) {
    if (ev.kind == EventKind::kSpawn) ++spawns;
    if (ev.kind == EventKind::kDone) ++dones;
  }
  EXPECT_EQ(spawns, 4);
  EXPECT_EQ(dones, 4);
  EXPECT_EQ(thread_pid(), -1);  // identity cleared outside the harness
}

TEST(RtObs, ProbedRegisterTracesUnderHarness) {
  Tracer tracer(2, 256);
  Registry reg;
  RtProbe probe{.reads = &reg.counter("r"),
                .writes = &reg.counter("w"),
                .tracer = &tracer,
                .object = 3};
  rt::SWMRRegister<std::int64_t> r(0);
  r.attach_probe(&probe);
  rt::parallel_run(
      2,
      [&](int pid) {
        if (pid == 0) {
          for (int i = 0; i < 10; ++i) r.write(i);
        } else {
          for (int i = 0; i < 10; ++i) (void)r.read();
        }
      },
      &tracer);
  EXPECT_EQ(reg.counter("w").value(), 10u);
  EXPECT_EQ(reg.counter("r").value(), 10u);
  int traced_accesses = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kRead || ev.kind == EventKind::kWrite) {
      EXPECT_EQ(ev.object, 3);
      ++traced_accesses;
    }
  }
  EXPECT_EQ(traced_accesses, 20);
}

// -------------------------------------------------------------- exporters --

TEST(Export, JsonContainsMetricsAndEvents) {
  Registry reg;
  reg.counter("reads").add(4);
  reg.gauge("depth").set(-2);
  reg.histogram("lat").record(8);
  Tracer tr(1, 8);
  tr.emit({5, 0, EventKind::kWrite, 2, 0});
  const std::string json = to_json(reg, &tr, "unit");
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"reads\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"write\""), std::string::npos);
}

TEST(ReplayArtifact, ScheduleFileRoundTrips) {
  const std::vector<int> sched = {0, 1, 2, 1, 0, 2, 2};
  const std::string path = "obs_test.schedule.txt";
  write_schedule_file(path, sched);
  EXPECT_EQ(read_schedule_file(path), sched);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ percentiles --

TEST(Percentile, EmptyHistogramReportsZero) {
  Registry reg;
  const auto snap = reg.histogram("empty").snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(snap.percentile(99.9), 0.0);
}

TEST(Percentile, EdgeBucketsReturnTheirFloors) {
  Registry reg;
  // Bucket 0 holds only the value 0; the top bucket (values ≥ 2^63) has no
  // upper edge — both report their floor rather than interpolating.
  Histogram& zeros = reg.histogram("zeros");
  zeros.record(0);
  zeros.record(0);
  EXPECT_DOUBLE_EQ(zeros.snapshot().percentile(50), 0.0);

  Histogram& top = reg.histogram("top");
  top.record(~std::uint64_t{0});
  EXPECT_DOUBLE_EQ(top.snapshot().percentile(99),
                   static_cast<double>(std::uint64_t{1} << 63));
}

TEST(Percentile, InterpolatesInsideTheBucket) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  // One sample of 100 lands in bucket [64, 128): p50 is the bucket midpoint,
  // p100 its upper edge — exact-to-bucket-resolution semantics.
  h.record(100);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(50), 96.0);
  EXPECT_DOUBLE_EQ(snap.percentile(100), 128.0);
}

TEST(Percentile, ClampsAndStaysMonotone) {
  Registry reg;
  Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const auto snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.percentile(-5), snap.percentile(0));
  EXPECT_DOUBLE_EQ(snap.percentile(200), snap.percentile(100));
  const double p50 = snap.percentile(50);
  const double p90 = snap.percentile(90);
  const double p99 = snap.percentile(99);
  const double p999 = snap.percentile(99.9);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p50, 256.0);   // true p50 is 500; bucket resolution is 2×
  EXPECT_LE(p999, 1024.0);
}

TEST(Export, HistogramJsonCarriesPercentiles) {
  Registry reg;
  reg.histogram("lat").record(100);
  const std::string json = to_json(reg, nullptr, "unit");
  EXPECT_NE(json.find("\"p50\": "), std::string::npos);
  EXPECT_NE(json.find("\"p90\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99\": "), std::string::npos);
  EXPECT_NE(json.find("\"p999\": "), std::string::npos);
}

// ------------------------------------------------------------------ spans --

using MaxL = MaxLattice<std::int64_t>;

TEST(Span, SimScanSpanTagsEveryAccessAndPhase) {
  const int n = 3;
  Tracer tracer(n, 4096);
  sim::World w(n, {.tracer = &tracer});
  LatticeScanSim<MaxL> ls(w, n);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    (void)co_await ls.scan(ctx, 1);
  });
  w.run_solo(0);

  std::uint64_t scan_op = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kOpBegin &&
        static_cast<OpKind>(ev.arg) == OpKind::kScan) {
      scan_op = ev.op;
    }
  }
  ASSERT_NE(scan_op, 0u);

  int accesses = 0;
  int phases = 0;
  bool closed = false;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kRead || ev.kind == EventKind::kWrite) {
      EXPECT_EQ(ev.op, scan_op);  // every access owned by the scan span
      ++accesses;
    } else if (ev.kind == EventKind::kPhase) {
      EXPECT_EQ(static_cast<Phase>(ev.arg), Phase::kCollect);
      EXPECT_EQ(ev.op, scan_op);
      ++phases;
    } else if (ev.kind == EventKind::kOpEnd && ev.op == scan_op) {
      closed = true;
    }
  }
  // §6.2 optimized: n²−1 reads + n+1 writes; one kCollect phase per pass.
  EXPECT_EQ(accesses, n * n - 1 + n + 1);
  EXPECT_EQ(phases, n + 1);
  EXPECT_TRUE(closed);
}

TEST(Span, WriteLNestsAScanAndTheInnermostSpanOwnsAccesses) {
  const int n = 2;
  Tracer tracer(n, 4096);
  sim::World w(n, {.tracer = &tracer});
  LatticeScanSim<MaxL> ls(w, n);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    co_await ls.write_l(ctx, 7);
  });
  w.run_solo(0);

  std::uint64_t outer = 0;
  std::uint64_t inner = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind != EventKind::kOpBegin) continue;
    if (static_cast<OpKind>(ev.arg) == OpKind::kWriteL) outer = ev.op;
    if (static_cast<OpKind>(ev.arg) == OpKind::kScan) inner = ev.op;
  }
  ASSERT_NE(outer, 0u);
  ASSERT_NE(inner, 0u);
  EXPECT_NE(outer, inner);
  int ends = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kRead || ev.kind == EventKind::kWrite) {
      EXPECT_EQ(ev.op, inner);  // nested scan is innermost → owns them
    }
    if (ev.kind == EventKind::kOpEnd) ++ends;
  }
  EXPECT_EQ(ends, 2);
}

TEST(Span, CrashLeavesTheSpanOpenInTheTrace) {
  const int n = 2;
  Tracer tracer(n, 4096);
  sim::World w(n, {.tracer = &tracer});
  LatticeScanSim<MaxL> ls(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&ls, pid](sim::Context ctx) -> sim::ProcessTask {
      (void)co_await ls.scan(ctx, pid);
    });
  }
  w.schedule_crash(0, /*at_access=*/2);  // mid-scan, span still open
  sim::RoundRobinScheduler rr;
  EXPECT_TRUE(w.run(rr).all_done);
  EXPECT_TRUE(w.crashed(0));

  std::uint64_t crashed_op = 0;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kOpBegin && ev.pid == 0) crashed_op = ev.op;
  }
  ASSERT_NE(crashed_op, 0u);
  bool crash_tagged = false;
  for (const auto& ev : tracer.events()) {
    // Explicit begin/end (not RAII) means the destroyed frame emits no
    // kOpEnd — the open span is the truth of the execution — and the crash
    // event itself carries the open op id.
    EXPECT_FALSE(ev.kind == EventKind::kOpEnd && ev.op == crashed_op);
    if (ev.kind == EventKind::kCrash && ev.op == crashed_op) {
      crash_tagged = true;
    }
  }
  EXPECT_TRUE(crash_tagged);
}

// A crash leaves the victim's spans open in the trace, and the revived
// incarnation starts outside them: its kSpawn carries op 0, and however
// often a pid is revived mid-op its open spans never pile up past the
// tracer's stack depth (8). The nested case crashes inside write_l → scan.
TEST(Span, MidOpRevivesStartOutsideTheCrashedSpans) {
  constexpr int kRevives = 8;
  for (const bool nested : {false, true}) {
    const int n = 2;
    Tracer tracer(n, 4096);
    sim::World w(n, {.tracer = &tracer});
    LatticeScanSim<MaxL> ls(w, n);
    const auto body = [&ls, nested](sim::Context ctx) -> sim::ProcessTask {
      if (nested) {
        co_await ls.write_l(ctx, 7);
      } else {
        (void)co_await ls.scan(ctx, 1);
      }
    };
    w.spawn(0, body);
    for (int i = 0; i < kRevives; ++i) {
      ASSERT_TRUE(w.step(0));
      ASSERT_TRUE(w.step(0));  // two accesses into the scan
      w.crash(0);
      w.revive(0, body);
    }
    ASSERT_TRUE(w.run_solo(0).all_done);

    const std::vector<TraceEvent> events = tracer.events();
    const TraceAnalysis a = analyze(events);
    const std::size_t depth = nested ? 2 : 1;
    std::vector<std::uint64_t> begun;  // this incarnation's op ids
    int spawns = 0;
    int crashes = 0;
    for (const TraceEvent& ev : events) {
      if (ev.kind == EventKind::kSpawn) {
        EXPECT_EQ(ev.op, 0u) << "incarnation " << spawns;
        ++spawns;
        begun.clear();
      } else if (ev.kind == EventKind::kOpBegin) {
        begun.push_back(ev.op);
      } else if (ev.kind == EventKind::kCrash) {
        ASSERT_EQ(begun.size(), depth);
        EXPECT_EQ(ev.op, begun.back());  // the innermost open op
        for (const std::uint64_t op : begun) {
          const OpStats* s = a.find(op);
          ASSERT_NE(s, nullptr);
          EXPECT_TRUE(s->opened && !s->closed) << "op " << op;
        }
        ++crashes;
      }
    }
    EXPECT_EQ(spawns, kRevives + 1);
    EXPECT_EQ(crashes, kRevives);
    EXPECT_EQ(a.open_ops, kRevives * depth);
    // The last incarnation's scan owns exactly its own solo accesses.
    ASSERT_EQ(begun.size(), depth);
    const OpStats* last = a.find(begun.back());
    ASSERT_NE(last, nullptr);
    EXPECT_TRUE(last->closed);
    EXPECT_EQ(last->reads, static_cast<std::uint64_t>(n * n - 1));
    EXPECT_EQ(last->writes, static_cast<std::uint64_t>(n + 1));
  }
}

// An end with no open span: the sim World drops it, because a tracer
// attached to a live World (the certifier's apply_options) never saw the
// begin, and the accesses after the attach are untagged. In rt it is a
// programming error.
TEST(Span, AnEndWithNoOpenSpanIsDroppedBySimAndFatalInRt) {
  const int n = 2;
  Tracer tracer(n, 4096);
  sim::World w(n);
  LatticeScanSim<MaxL> ls(w, n);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    (void)co_await ls.scan(ctx, 1);
  });
  ASSERT_TRUE(w.step(0));  // the scan's span is open, untraced
  w.apply_options({.tracer = &tracer});
  ASSERT_TRUE(w.run_solo(0).all_done);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_FALSE(events.empty());
  for (const TraceEvent& ev : events) {
    EXPECT_NE(ev.kind, EventKind::kOpEnd);
    EXPECT_EQ(ev.op, 0u);
  }
  EXPECT_EQ(analyze(events).untagged_accesses,
            static_cast<std::uint64_t>(n * n - 1 + n + 1 - 1));

  const auto end_outside_any_span = [&tracer] {
    set_thread_identity(0, &tracer);
    rt_op_end(OpKind::kUser);
  };
  EXPECT_DEATH(end_outside_any_span(), "op_end without a matching op_begin");
}

TEST(Span, RtAmbientSpanTagsProbedAccesses) {
  Tracer tracer(2, 256);
  Registry reg;
  RtProbe probe{.reads = &reg.counter("r"),
                .writes = &reg.counter("w"),
                .tracer = &tracer,
                .object = 3};
  rt::SWMRRegister<std::int64_t> r(0);
  r.attach_probe(&probe);
  rt::parallel_run(
      2,
      [&](int pid) {
        if (pid == 0) {
          SpanScope span(OpKind::kUser);
          r.write(1);
        } else {
          (void)r.read();  // outside any span → untagged
        }
      },
      &tracer);
  bool saw_write = false;
  bool saw_read = false;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == EventKind::kWrite) {
      EXPECT_NE(ev.op, 0u);
      saw_write = true;
    }
    if (ev.kind == EventKind::kRead) {
      EXPECT_EQ(ev.op, 0u);
      saw_read = true;
    }
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_read);
  // Outside the harness the thread has no ambient tracer: a span is a no-op.
  const std::uint64_t recorded = tracer.recorded();
  rt_op_begin(OpKind::kUser);
  rt_op_end(OpKind::kUser);
  EXPECT_EQ(tracer.recorded(), recorded);
}

// ----------------------------------------------------------- chrome trace --

TEST(ChromeTrace, EmitsMetadataSpansAndInstants) {
  const std::vector<TraceEvent> evs = {
      {1, 0, EventKind::kOpBegin, -1,
       static_cast<std::uint64_t>(OpKind::kScan), 1},
      {2, 0, EventKind::kRead, 5, 0, 1},
      {3, 0, EventKind::kPhase, 0,
       static_cast<std::uint64_t>(Phase::kCollect), 1},
      {4, 0, EventKind::kOpEnd, -1,
       static_cast<std::uint64_t>(OpKind::kScan), 1},
  };
  std::stringstream ss;
  export_chrome_trace(ss, evs, TraceTimebase::kSimSteps, "unit");
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);  // process name
  EXPECT_NE(json.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("phase:collect"), std::string::npos);
  EXPECT_NE(json.find("read r5"), std::string::npos);
}

TEST(ChromeTrace, DropsTruncatedOpsAndUnbalancedEnds) {
  const std::vector<TraceEvent> evs = {
      // Op 9's begin was overwritten (kTruncated marker): its end must not
      // render. A bare kOpEnd with no begin at all must not render either —
      // the viewer rejects unbalanced E events.
      {1, 0, EventKind::kTruncated, -1, 0, 9},
      {2, 0, EventKind::kOpEnd, -1, static_cast<std::uint64_t>(OpKind::kScan),
       9},
      {3, 1, EventKind::kOpEnd, -1, static_cast<std::uint64_t>(OpKind::kScan),
       11},
  };
  std::stringstream ss;
  export_chrome_trace(ss, evs, TraceTimebase::kSimSteps, "unit");
  const std::string json = ss.str();
  EXPECT_EQ(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"E\""), std::string::npos);
}

TEST(ChromeTrace, HelpEventsDrawFlowArrowsFromTheHelpingCas) {
  const std::vector<TraceEvent> evs = {
      {1, 1, EventKind::kCas, 4, /*success=*/1, 0},  // pid 1's CAS on node 4
      {2, 0, EventKind::kHelp, 4, 0, 0},             // pid 0 was helped on 4
  };
  std::stringstream ss;
  export_chrome_trace(ss, evs, TraceTimebase::kSimSteps, "unit");
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"name\": \"helped\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(ChromeTrace, GoldenShapeForATinyDeterministicSimSchedule) {
  // A solo n=2 optimized Scan is fully deterministic: 3 reads + 3 writes at
  // global steps 0..5, one kScan span, n+1 = 3 collect phases. Only the op
  // id (a process-global counter) varies run to run, so the golden asserts
  // the exact event shape rather than a byte-identical file.
  const int n = 2;
  Tracer tracer(n, 1024);
  sim::World w(n, {.tracer = &tracer});
  LatticeScanSim<MaxL> ls(w, n);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    (void)co_await ls.scan(ctx, 1);
  });
  w.run_solo(0);

  std::stringstream ss;
  export_chrome_trace(ss, tracer.events(), TraceTimebase::kSimSteps,
                      "golden");
  const std::string json = ss.str();
  const auto count = [&](const std::string& needle) {
    int c = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++c;
    }
    return c;
  };
  EXPECT_EQ(count("\"ph\": \"M\""), 2);  // process name + one pid track
  EXPECT_EQ(count("\"ph\": \"B\""), 1);
  EXPECT_EQ(count("\"ph\": \"E\""), 1);
  EXPECT_EQ(count("\"name\": \"scan\""), 1);
  EXPECT_EQ(count("phase:collect"), n + 1);
  EXPECT_EQ(count("\"name\": \"read"), n * n - 1);
  EXPECT_EQ(count("\"name\": \"write"), n + 1);
  // Step indices render directly as timestamps: the first access at step 0,
  // the last of the 6 at step 5, and the span close stamped at step 6 (the
  // global step after the final access). Nothing beyond that.
  EXPECT_NE(json.find("\"ts\": 0,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 5,"), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 6 "), std::string::npos);  // the E event
  EXPECT_EQ(json.find("\"ts\": 7"), std::string::npos);
}

// ------------------------------------------------------------- truncation --

TEST(Trace, OverflowSynthesizesTruncatedMarkers) {
  constexpr std::size_t kCap = 4;
  Tracer tr(1, kCap);
  tr.emit({1, 0, EventKind::kOpBegin, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 42});
  for (std::uint64_t i = 0; i < 2 * kCap; ++i) {
    tr.emit({2 + i, 0, EventKind::kRead, 0, 0, 42});
  }
  tr.emit({20, 0, EventKind::kOpEnd, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 42});
  // The ring overwrote op 42's kOpBegin; collect() marks the op truncated so
  // analyzers exclude it instead of under-counting its accesses.
  bool marker = false;
  for (const auto& ev : tr.events()) {
    if (ev.kind == EventKind::kTruncated && ev.op == 42) marker = true;
  }
  EXPECT_TRUE(marker);
}

TEST(Trace, NoMarkersWithoutOverflow) {
  Tracer tr(1, 64);
  tr.emit({1, 0, EventKind::kOpBegin, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 7});
  tr.emit({2, 0, EventKind::kRead, 0, 0, 7});
  tr.emit({3, 0, EventKind::kOpEnd, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 7});
  for (const auto& ev : tr.events()) {
    EXPECT_NE(ev.kind, EventKind::kTruncated);
  }
}

TEST(Trace, TwoSlotRingCountsDroppedEventsExactly) {
  // The conservation law on the smallest ring that can overflow:
  // recorded == survived + dropped, with synthesized kTruncated markers in
  // NONE of the buckets (they live only in the output vector).
  Tracer tr(1, 2);
  tr.emit({1, 0, EventKind::kOpBegin, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 9});
  for (std::uint64_t i = 0; i < 3; ++i) {
    tr.emit({2 + i, 0, EventKind::kRead, 0, 0, 9});
  }
  tr.emit({8, 0, EventKind::kOpEnd, -1,
           static_cast<std::uint64_t>(OpKind::kScan), 9});
  // 5 emits into 2 slots: the newest 2 survive, exactly 3 were overwritten.
  EXPECT_EQ(tr.recorded(), 5u);
  EXPECT_EQ(tr.dropped(), 3u);

  // Op 9's kOpBegin was overwritten while its kOpEnd survived → exactly one
  // synthesized marker, appended to the output without touching a ring slot
  // or the drop count.
  const auto tally = [&tr] {
    std::uint64_t survivors = 0;
    std::uint64_t markers = 0;
    for (const auto& ev : tr.events()) {
      if (ev.kind == EventKind::kTruncated) {
        EXPECT_EQ(ev.op, 9u);
        ++markers;
      } else {
        ++survivors;
      }
    }
    return std::make_pair(survivors, markers);
  };
  const auto [survivors, markers] = tally();
  EXPECT_EQ(survivors, 2u);
  EXPECT_EQ(markers, 1u);
  EXPECT_EQ(tr.recorded(), survivors + tr.dropped());
  // Collection is read-only: a second pass reports identical accounting.
  EXPECT_EQ(tally(), std::make_pair(survivors, markers));
  EXPECT_EQ(tr.dropped(), 3u);
}

// -------------------------------------------------------------- contention --

TEST(Contention, TelemetryAddsNoModelAccessesAndPinsSoloOutcomes) {
  // The closed form 1 + 4h counts MODEL register accesses; contention
  // telemetry ticks process-local memory only, so the count must hold
  // whether the counters are compiled in or out — the "bit-identical hot
  // path" half of the compile-out contract.
  const int n = 8;
  sim::World w(n);
  snapshot::TreeScan<api::SimBackend, MaxL> tree(w, n);
  w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    co_await tree.update(ctx, 5);
  });
  w.run_solo(0);
  EXPECT_EQ(w.counts(0).total(), farray::farray_write_solo_accesses(n));

  const auto h = static_cast<std::uint64_t>(farray::farray_height(n));
  const ContentionTotals t = tree.contention().totals();
  if (kContentionEnabled) {
    // A solo walk installs first-try at every level: h walks, all
    // first-refresh, and the derived CAS counts follow the (1, 0) row of
    // the WalkOutcome table.
    EXPECT_EQ(t.walks(), h);
    EXPECT_EQ(t.first_refresh, h);
    EXPECT_EQ(t.second_refresh, 0u);
    EXPECT_EQ(t.helped, 0u);
    EXPECT_EQ(t.cas_attempts, h);
    EXPECT_EQ(t.cas_failures, 0u);
    EXPECT_DOUBLE_EQ(t.cas_fail_rate(), 0.0);
    EXPECT_DOUBLE_EQ(t.double_refresh_rate(), 0.0);
    // Per-level attribution: one first-try walk at every level 0..h-1.
    EXPECT_EQ(tree.contention().num_levels(), static_cast<int>(h));
    for (int lvl = 0; lvl < static_cast<int>(h); ++lvl) {
      EXPECT_EQ(tree.contention().level_totals(lvl).first_refresh, 1u)
          << "level " << lvl;
    }
    // Exported gauges carry the same numbers (per-level + totals).
    Registry reg;
    tree.export_contention_gauges(reg, "farray.unit");
    EXPECT_EQ(reg.gauge("farray.unit.walks").value(),
              static_cast<std::int64_t>(h));
    EXPECT_EQ(reg.gauge("farray.unit.cas_fail_rate").value(), 0);
    EXPECT_EQ(reg.gauge("farray.unit.level0.first_refresh").value(), 1);
  } else {
    // Compiled out: the identical API reads all-zero.
    EXPECT_EQ(t.walks(), 0u);
    EXPECT_EQ(t.cas_attempts, 0u);
    Registry reg;
    tree.export_contention_gauges(reg, "farray.unit");
    EXPECT_EQ(to_json(reg, nullptr, "unit").find("farray.unit"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------- sampler --

TEST(Sampler, DeterministicSubsetPerSeed) {
  const SpanSampler a{/*seed=*/0xfeedULL, /*rate=*/8};
  const SpanSampler b{/*seed=*/0xfeedULL, /*rate=*/8};
  const SpanSampler c{/*seed=*/0xbeefULL, /*rate=*/8};

  std::set<std::uint64_t> kept_a;
  std::set<std::uint64_t> kept_c;
  for (std::uint64_t op = 1; op <= 4096; ++op) {
    EXPECT_EQ(a.keep(2, op), b.keep(2, op));  // same seed → same subset
    if (a.keep(2, op)) kept_a.insert(op);
    if (c.keep(2, op)) kept_c.insert(op);
  }
  // Roughly 1-in-8 (splitmix64 spreads uniformly; 2× slack either way).
  EXPECT_GT(kept_a.size(), 4096u / 16);
  EXPECT_LT(kept_a.size(), 4096u / 4);
  EXPECT_NE(kept_a, kept_c);  // different seeds → different subsets

  // The pid is part of the hash: two pids disagree somewhere.
  bool pid_differs = false;
  for (std::uint64_t op = 1; op <= 256 && !pid_differs; ++op) {
    pid_differs = a.keep(0, op) != a.keep(1, op);
  }
  EXPECT_TRUE(pid_differs);

  // op 0 (spawn/done/untagged accesses) is population metadata, never
  // sampled out; rate <= 1 keeps everything.
  EXPECT_TRUE(a.keep(5, 0));
  const SpanSampler all{/*seed=*/123, /*rate=*/1};
  for (std::uint64_t op = 1; op <= 64; ++op) {
    EXPECT_TRUE(all.keep(0, op));
  }
}

TEST(Sampler, SampledTraceStillVerifiesTheTreeUpdateBound) {
  // Exact subset semantics end-to-end: install a 1-in-4 sampler, run a
  // contended TreeScan workload, and check the 1+8⌈log2 n⌉ bound on the
  // sampled population — kept spans are complete, so the bound verifies
  // exactly; only the population size shrinks.
  const int n = 4;
  constexpr int kOpsPerPid = 64;
  Tracer tracer(n, 1 << 14);
  tracer.set_sampler(SpanSampler{/*seed=*/42, /*rate=*/4});
  sim::World w(n, {.tracer = &tracer});
  snapshot::TreeScan<api::SimBackend, MaxL> tree(w, n);
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&tree, pid](sim::Context ctx) -> sim::ProcessTask {
      for (int i = 0; i < kOpsPerPid; ++i) {
        co_await tree.update(ctx, pid * 1000 + i);
      }
    });
  }
  sim::RandomScheduler sched(/*seed=*/11, /*stickiness=*/0.5);
  ASSERT_TRUE(w.run(sched).all_done);
  EXPECT_EQ(tracer.dropped(), 0u);     // the ring never overflowed...
  EXPECT_GT(tracer.sampled_out(), 0u);  // ...the sampler did the thinning

  const TraceAnalysis a = analyze(tracer.events());
  const BoundReport report = check_tree_update_bound(a, n);
  EXPECT_TRUE(report.ok()) << format_report(report);
  EXPECT_GT(report.checked, 0u);
  EXPECT_LT(report.checked,
            static_cast<std::uint64_t>(n) * kOpsPerPid);  // a strict subset
  EXPECT_EQ(report.excluded, 0u);  // sampling truncates nothing
}

}  // namespace
}  // namespace apram::obs
