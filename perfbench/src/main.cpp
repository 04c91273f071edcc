// perfbench — the repository benchmark. One workload per process:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>]
//
// It runs T = min(nproc, 4) worker threads. --trace 0 measures the
// end-to-end metrics with tracing off. --trace 1 runs the cost ladder, the solo exact-count step, an untraced pass and a
// traced pass of the same workload, and reports the per-layer metrics.
// Stdout carries a run manifest line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ladder.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rt/thread_harness.hpp"
#include "util.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using apram::obs::EventKind;
using apram::obs::OpKind;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

// ---- spans from the traced pass ------------------------------------------

// Accesses of complete object spans, by op kind. The benchmark's own spans
// (kUser) enclose the object's; accesses carry the innermost span's id.
struct KindTally {
  std::uint64_t spans = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t cas = 0;
  std::uint64_t cas_fail = 0;
  std::uint64_t accesses() const { return reads + writes + cas; }
};

void tally_spans(const std::vector<apram::obs::TraceEvent>& events,
                 std::map<OpKind, KindTally>& out) {
  struct Span {
    OpKind kind = OpKind::kNone;
    bool begun = false;
    bool ended = false;
    bool truncated = false;
    KindTally t;
  };
  std::unordered_map<std::uint64_t, Span> spans;
  for (const auto& ev : events) {
    if (ev.op == 0) continue;
    Span& s = spans[ev.op];
    switch (ev.kind) {
      case EventKind::kOpBegin:
        s.begun = true;
        s.kind = static_cast<OpKind>(ev.arg);
        break;
      case EventKind::kOpEnd:
        s.ended = true;
        break;
      case EventKind::kRead:
        ++s.t.reads;
        break;
      case EventKind::kWrite:
        ++s.t.writes;
        break;
      case EventKind::kCas:
        ++s.t.cas;
        if (ev.arg == 0) ++s.t.cas_fail;
        break;
      case EventKind::kTruncated:
        s.truncated = true;
        break;
      default:
        break;
    }
  }
  for (const auto& [id, s] : spans) {
    if (!s.begun || !s.ended || s.truncated || s.kind == OpKind::kUser) {
      continue;
    }
    KindTally& k = out[s.kind];
    ++k.spans;
    k.reads += s.t.reads;
    k.writes += s.t.writes;
    k.cas += s.t.cas;
    k.cas_fail += s.t.cas_fail;
  }
}

// ---- one pass: rounds until the budget is spent --------------------------

struct Pass {
  std::vector<double> ops_per_sec;
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
  std::vector<double> setup_s;
  std::vector<double> imbalance;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t samples = 0;
  std::vector<double> kind_p50_ns[kMaxKinds];  // per round, by op kind
  double rss_setup_mb = 0;   // first round, after set-up
  double rss_growth_mb = 0;  // first round, across the timed ops
  LayerTally tally;
  std::map<OpKind, KindTally> spans;
};

// Traced pass: 1 object span in 32 is kept, subset-exact (obs/sampler.hpp).
constexpr std::uint32_t kTraceSampleRate = 32;
constexpr std::size_t kRingCapacity = 1u << 17;
constexpr int kMinRounds = 3;

Pass run_pass(Workload& w, int threads, double budget_s, bool traced,
              std::uint64_t seed) {
  Pass pass;
  apram::obs::Registry registry;
  std::unique_ptr<apram::obs::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<apram::obs::Tracer>(threads, kRingCapacity);
    tracer->set_sampler(apram::obs::SpanSampler{seed, kTraceSampleRate});
  }
  const double deadline = now_s() + budget_s;
  // Sample buffers are reserved once per pass and reused, so the workers
  // allocate nothing for the harness and its memory is the same every run.
  const std::size_t max_samples = w.ops_per_round() / kSampleRate * 2;
  std::vector<ThreadLog> logs(static_cast<std::size_t>(threads));
  for (ThreadLog& log : logs) {
    log.lat.reserve(max_samples);
    for (auto& k : log.kind_lat) k.reserve(max_samples);
  }
  std::vector<std::uint32_t> lat;
  lat.reserve(max_samples * static_cast<std::size_t>(threads));
  for (int round = 0; round < kMinRounds || now_s() < deadline; ++round) {
    for (ThreadLog& log : logs) {
      log.ops = 0;
      log.failed = 0;
      log.lat.clear();
      for (auto& k : log.kind_lat) k.clear();
    }
    lat.clear();
    const double setup_t0 = now_s();
    w.setup();
    pass.setup_s.push_back(now_s() - setup_t0);
    const double rss_after_setup = rss_mb();
    if (traced) w.attach(registry, tracer.get());

    std::atomic<int> arrived{0};
    apram::rt::parallel_run(
        threads,
        [&](int pid) {
          ThreadLog& log = logs[static_cast<std::size_t>(pid)];
          pin_to_cpu(pid);
          arrived.fetch_add(1);
          while (arrived.load() < threads) {
          }
          log.t0 = now_s();
          w.run_thread(pid, log, traced);
          log.t1 = now_s();
        },
        tracer.get());
    const double rss_after_ops = rss_mb();
    if (round == 0) {
      pass.rss_setup_mb = rss_after_setup;
      pass.rss_growth_mb = rss_after_ops - rss_after_setup;
    }

    std::uint64_t ops = 0;
    double start = logs[0].t0;
    double end = logs[0].t1;
    double slowest = 0.0;
    double fastest = 1e300;
    for (const ThreadLog& log : logs) {
      ops += log.ops;
      pass.failed += log.failed;
      start = std::min(start, log.t0);
      end = std::max(end, log.t1);
      slowest = std::max(slowest, log.t1 - log.t0);
      fastest = std::min(fastest, log.t1 - log.t0);
      lat.insert(lat.end(), log.lat.begin(), log.lat.end());
    }
    for (int k = 0; k < w.num_kinds(); ++k) {
      std::vector<std::uint32_t> kind;
      for (const ThreadLog& log : logs) {
        kind.insert(kind.end(), log.kind_lat[k].begin(), log.kind_lat[k].end());
      }
      pass.kind_p50_ns[k].push_back(median(kind));
    }
    pass.failed += w.check();
    w.tally(pass.tally);
    w.teardown();
    if (traced) tally_spans(tracer->drain(), pass.spans);

    pass.attempted += ops;
    pass.tally.ops += ops;
    pass.samples += lat.size();
    pass.ops_per_sec.push_back(static_cast<double>(ops) / (end - start));
    pass.p50_ns.push_back(quantile(lat, 0.50));
    pass.p99_ns.push_back(quantile(lat, 0.99));
    pass.imbalance.push_back(slowest / fastest);
    std::cerr << "round " << round << (traced ? " traced" : "") << ": "
              << pass.ops_per_sec.back() << " ops/s, setup "
              << pass.setup_s.back() << " s, p50 " << pass.p50_ns.back()
              << " ns, p99 " << pass.p99_ns.back() << " ns\n";
  }
  return pass;
}

// ---- output ---------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_manifest(const Args& a, int threads) {
#if defined(APRAM_OBS_CONTENTION_OFF)
  const bool contention = false;
#else
  const bool contention = true;
#endif
#if defined(APRAM_RT_UNBOUNDED)
  const bool unbounded = true;
#else
  const bool unbounded = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  std::cout << "manifest {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"threads\": " << threads
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string("gcc " __VERSION__)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"APRAM_OBS_CONTENTION\": " << (contention ? "true" : "false")
            << ", \"APRAM_RT_UNBOUNDED\": " << (unbounded ? "true" : "false")
            << ", \"sanitizer\": " << json_string(sanitizer)
            << ", \"git_sha\": " << json_string(a.git_sha)
            << ", \"workload\": " << json_string(a.workload)
            << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"latency_sample_rate\": " << kSampleRate
            << ", \"trace_sample_rate\": " << kTraceSampleRate
            << ", \"union_find_universe\": " << kUniverse << "}\n";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << metrics[i].value
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Median sampled latency of op kind `name` (mid-mean over rounds), 0 when
// the workload has no such kind.
double kind_median(const Pass& p, const Workload& w, const std::string& name) {
  for (int k = 0; k < w.num_kinds(); ++k) {
    if (w.kind_name(k) == name) return midmean(p.kind_p50_ns[k]);
  }
  return 0.0;
}

int run(int argc, char** argv) {
  Args a;
  bool ok = false;
  try {
    ok = parse(argc, argv, a);
  } catch (const std::exception&) {  // a number that does not parse
  }
  if (!ok) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>]\n";
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = std::min(nproc, 4);
  std::unique_ptr<Workload> w = make_workload(a.workload, threads, a.seed);
  if (!w) {
    std::cerr << "unknown workload: " << a.workload << "\n";
    return 2;
  }
  print_manifest(a, threads);

  if (!a.trace) {
    const Pass p = run_pass(*w, threads, a.seconds, false, a.seed);
    std::cout << "rounds " << p.ops_per_sec.size() << ", latency samples "
              << p.samples << "\n";
    print_result(p.failed == 0, p.attempted, p.failed,
                 {{"ops_per_sec", median(p.ops_per_sec), "1/s"},
                  {"op_p50_ns", midmean(p.p50_ns), "ns"},
                  {"op_p99_ns", midmean(p.p99_ns), "ns"},
                  {"setup_s", median(p.setup_s), "s"},
                  {"rss_setup_mb", p.rss_setup_mb, "MB"},
                  {"rss_peak_mb", peak_rss_mb(), "MB"}});
    return 0;
  }

  const double t0 = now_s();
  const Ladder l = run_ladder(threads);
  const Solo solo = run_solo(l);
  if (!solo.counts_exact) {
    std::cout << "solo access count mismatch: " << solo.mismatch << "\n";
  }
  const double left = std::max(1.0, a.seconds - (now_s() - t0));
  const Pass plain = run_pass(*w, threads, left / 2, false, a.seed);
  const Pass traced = run_pass(*w, threads, left / 2, true, a.seed);

  const auto span = [&](OpKind k) {
    const auto it = traced.spans.find(k);
    return it == traced.spans.end() ? KindTally{} : it->second;
  };
  const KindTally upd = span(OpKind::kTreeUpdate);
  const KindTally scn = span(OpKind::kTreeScan);
  const KindTally enq = span(OpKind::kEnqueue);
  const KindTally deq = span(OpKind::kDequeue);
  const KindTally uni = span(OpKind::kUnion);
  const KindTally fnd = span(OpKind::kFind);
  const LayerTally& t = plain.tally;
  const double traced_ops = median(traced.ops_per_sec);
  const double plain_ops = median(plain.ops_per_sec);
  const double bytes_per_op = plain.rss_growth_mb * 1024 * 1024 /
                              static_cast<double>(w->ops_per_round());

  const std::vector<Metric> m = {
      {"atomic.load_ns", l.atomic_load_ns, "ns"},
      {"atomic.cas_ns", l.atomic_cas_ns, "ns"},
      {"rt.swmr_read_ns", l.swmr_read_ns, "ns"},
      {"rt.swmr_write_ns", l.swmr_write_ns, "ns"},
      {"rt.casvalue_read_ns", l.casvalue_read_ns, "ns"},
      {"rt.casvalue_read_contended_ns", l.casvalue_read_contended_ns, "ns"},
      {"rt.casvalue_cas_ns", l.casvalue_cas_ns, "ns"},
      {"rt.casvalue_cas_contended_ns", l.casvalue_cas_contended_ns, "ns"},
      {"reclaim.acquire_release_ns", l.acquire_release_ns, "ns"},
      {"reclaim.acquire_contention_per_op", ratio(t.acquire_contention, t.ops),
       "count/op"},
      {"reclaim.live_versions", static_cast<double>(t.live_versions), "count"},
      {"farray.write_ns", l.farray_write_ns, "ns"},
      {"farray.read_f_ns", l.farray_read_f_ns, "ns"},
      {"farray.cas_fail_rate",
       ratio(t.farray_cas_failures, t.farray_cas_attempts), "ratio"},
      {"farray.double_refresh_rate",
       ratio(t.farray_double_refresh, t.farray_walks), "ratio"},
      {"snapshot.update_ns", kind_median(plain, *w, "update"), "ns"},
      {"snapshot.scan_ns", kind_median(plain, *w, "scan"), "ns"},
      {"snapshot.accesses_per_update", ratio(upd.accesses(), upd.spans),
       "accesses/op"},
      {"snapshot.accesses_per_scan", ratio(scn.accesses(), scn.spans),
       "accesses/op"},
      {"snapshot.update_model_ratio", solo.update_model_ratio, "ratio"},
      {"snapshot.scan_model_ratio", solo.scan_model_ratio, "ratio"},
      {"queue.enqueue_ns", kind_median(plain, *w, "enqueue"), "ns"},
      {"queue.dequeue_ns", kind_median(plain, *w, "dequeue"), "ns"},
      {"queue.accesses_per_op",
       ratio(enq.accesses() + deq.accesses(), enq.spans + deq.spans),
       "accesses/op"},
      {"queue.cas_fail_per_op",
       ratio(enq.cas_fail + deq.cas_fail, enq.spans + deq.spans), "count/op"},
      {"queue.bytes_per_op", a.workload == "queue_churn" ? bytes_per_op : 0.0,
       "B/op"},
      {"queue.model_ratio", solo.queue_model_ratio, "ratio"},
      {"union_find.unite_ns", kind_median(plain, *w, "unite"), "ns"},
      {"union_find.find_ns", kind_median(plain, *w, "same_set"), "ns"},
      {"union_find.reads_per_find", ratio(fnd.reads, fnd.spans), "reads/op"},
      {"union_find.cas_fail_per_unite", ratio(uni.cas_fail, uni.spans),
       "count/op"},
      {"u2.inc_ns", kind_median(plain, *w, "inc"), "ns"},
      {"u2.slow_path_frac", ratio(t.u2_slow_entries, t.u2_incs), "ratio"},
      {"u2.model_ratio", solo.u2_model_ratio, "ratio"},
      {"harness.thread_imbalance", median(plain.imbalance), "ratio"},
      {"harness.sample_cost_ns", l.sample_cost_ns, "ns"},
      {"harness.latency_samples", static_cast<double>(plain.samples), "count"},
      {"obs.trace_overhead_frac",
       plain_ops > 0 ? 1.0 - traced_ops / plain_ops : 0.0, "ratio"},
      {"mem.rss_growth_mb", plain.rss_growth_mb, "MB"},
  };
  const std::uint64_t failed =
      plain.failed + traced.failed + (solo.counts_exact ? 0 : 1);
  print_result(failed == 0, plain.attempted + traced.attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
