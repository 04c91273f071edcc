// apram::obs — offline trace analyzer.
//
// Re-derives the paper's per-operation bounds from a trace alone: spans
// (obs/span.hpp) tie each shared-memory access event to an operation id, so
// counting a trace's tagged accesses per op and comparing against the closed
// forms is an end-to-end check that the *executed* algorithm — not a counter
// someone remembered to bump — meets the theorem:
//
//   scan        §6.2: a lattice Scan costs ≤ n²−1 reads and ≤ n+1 writes
//   tree_update Theorem (TreeScan): an update costs ≤ 1 + 8·⌈log2 n⌉ accesses
//   tree_scan   a TreeScan scan costs exactly 1 access
//   agreement   Theorem 5: an output() finishes within
//               (2n+1)·(log2(Δ/ε)+3) + 8n accesses — the exact slackened
//               constant tests/agreement_test.cpp asserts
//   u2_help     universal2's help discipline: a complete operation emits at
//               most n−1 kHelp events (one per distinct helped process;
//               WaitFreeSim dedups per own-op epoch and never helps itself)
//   queue_op    PolylogQueue: an enqueue/dequeue completes within
//               c·⌈log2 n⌉² shared accesses (c = 12) — the Naderibeni–
//               Ruppert O(log² n) envelope. The register-model
//               implementation actually sits at ≤ 2 + 8·⌈log2 n⌉, so this
//               certifies the paper's polylog claim with generous margin.
//
// Truncation discipline: an op whose kOpBegin was overwritten in the ring
// (marked kTruncated by the Tracer) or never closed has an under-counted
// access total; such ops are excluded from bound checks and reported in
// `TraceAnalysis::truncated_ops` / `open_ops` instead of silently passing.
//
// The `tools/apram-trace` CLI wraps this library over the `events` array of
// a --metrics_out JSON artifact (obs/export.hpp schema).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/contention.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace apram::obs {

// Per-operation totals recovered from a trace.
struct OpStats {
  std::uint64_t op = 0;
  int pid = -1;
  OpKind kind = OpKind::kNone;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool opened = false;     // kOpBegin survived
  bool closed = false;     // kOpEnd seen
  bool truncated = false;  // kTruncated marker (ring overwrite ate the begin)
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t cas_ops = 0;
  std::uint64_t phases = 0;  // kPhase events inside this op
  std::uint64_t helps = 0;   // kHelp events inside this op

  // Total shared-memory steps; a CAS is one atomic step of the extended
  // model (same bookkeeping as obs::AccessCounts).
  std::uint64_t accesses() const { return reads + writes + cas_ops; }

  // Eligible for exact bound checking.
  bool complete() const { return opened && closed && !truncated; }
};

struct TraceAnalysis {
  std::vector<OpStats> ops;  // in first-appearance order
  int num_pids = 0;          // max event pid + 1
  std::uint64_t truncated_ops = 0;
  std::uint64_t open_ops = 0;           // begun, never ended (e.g. crashed)
  std::uint64_t untagged_accesses = 0;  // access events outside any span

  const OpStats* find(std::uint64_t op) const;
  std::vector<const OpStats*> complete_of(OpKind kind) const;
};

TraceAnalysis analyze(const std::vector<TraceEvent>& events);

// Loads the `events` array of a metrics JSON artifact written by
// obs::write_metrics_json (aborts on a file/shape it cannot read — a CI
// check must fail loudly, not skip).
std::vector<TraceEvent> load_events_json(const std::string& path);

// True iff the artifact is readable and carries a (possibly empty) "events"
// array. Lets callers fall back to gauge-derived analysis for artifacts
// exported without a tracer; unreadable files probe false (the loud abort
// belongs to whichever loader runs next).
bool metrics_json_has_events(const std::string& path);

// Scalar view of a whole metrics JSON artifact (obs/export.hpp schema):
// counters, gauges, and histogram summaries by name. Bucket arrays are
// skipped — diffing and gauge-derived heatmaps only need the summaries.
struct MetricsDoc {
  struct HistSummary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    double mean = 0, p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  };

  std::string name;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistSummary> histograms;
};

// Aborts on a file/shape it cannot read (same loud-failure contract as
// load_events_json).
MetricsDoc load_metrics_json(const std::string& path);

// --- contention heatmap ----------------------------------------------------
//
// Re-derives the per-level contention profile that obs::NodeContention
// counts online, but from a trace alone: every farray refresh level opens
// with a kPhase(kRefresh, level) event, the 1–2 CAS attempts that follow
// (until the next phase or the op's end) belong to that level, and a kHelp
// event means both attempts lost. So the trace carries exactly the
// first/second-refresh split the telemetry counters record — computing it
// both ways and comparing is the cross-check obs_test uses.
//
// Per-node rows are keyed by the CAS target's REGISTER id (ev.object of the
// kCas event) — the trace does not know tree-heap indices, only registers;
// within one structure the map is injective, so relative hotness per node
// is faithful.
struct ContentionHeatmap {
  std::vector<ContentionTotals> levels;   // [level], from kPhase(kRefresh, l)
  std::map<int, ContentionTotals> nodes;  // register id → totals
  std::map<int, int> node_level;          // register id → level observed
  std::uint64_t refresh_ops = 0;          // ops that walked ≥ 1 level

  // Level with the highest double-refresh rate (ties → the higher level);
  // -1 when no level saw a walk. In a contended farray run this is the
  // root: every updater's walk ends there, so CAS races concentrate at the
  // top — the acceptance check for the t16 bench heatmap.
  int peak_level() const;
};

ContentionHeatmap contention_heatmap(const std::vector<TraceEvent>& events);

// --- help graph ------------------------------------------------------------
//
// Who-helped-whom adjacency for universal2 operations. In a u2 span, a
// kHelp event's pid is the HELPER (the process whose own op did the work)
// and its object is the HELPED pid (WaitFreeSim dedups per own-op epoch, so
// an op contributes each helped pid at most once). Farray kHelp events
// (object = tree node, not a pid) are excluded by op kind.
struct HelpGraph {
  int num_pids = 0;  // max pid appearing as helper or helped, + 1
  std::map<std::pair<int, int>, std::uint64_t> edges;  // (helper, helped)
  std::uint64_t total_helps = 0;
  std::uint64_t ops_seen = 0;              // u2 ops in the trace
  std::uint64_t max_distinct_helped = 0;   // max per-op distinct helped pids

  std::uint64_t given(int pid) const;     // Σ edges[(pid, *)]
  std::uint64_t received(int pid) const;  // Σ edges[(*, pid)]
};

HelpGraph help_graph(const std::vector<TraceEvent>& events);

// --- bound checks ----------------------------------------------------------

struct BoundViolation {
  std::uint64_t op = 0;
  int pid = -1;
  std::string detail;  // "op 7 pid 2: 17 reads > bound 15 (n=4)"
};

struct BoundReport {
  std::string name;            // canonical bound name
  std::string formula;         // canonical formula string
  std::uint64_t checked = 0;   // complete ops inspected
  std::uint64_t excluded = 0;  // truncated/open ops of the kind, skipped
  std::vector<BoundViolation> violations{};

  bool ok() const { return violations.empty(); }
};

// n defaults (n <= 0) to the trace's num_pids.
BoundReport check_scan_bound(const TraceAnalysis& a, int n = 0);
BoundReport check_tree_update_bound(const TraceAnalysis& a, int n = 0);
BoundReport check_tree_scan_bound(const TraceAnalysis& a);
// `log_ratio` is log2(Δ/ε) of the agreement instance being checked.
BoundReport check_agreement_bound(const TraceAnalysis& a, double log_ratio,
                                  int n = 0);
// Checks every complete universal2 operation (kU2Execute / kU2Insert /
// kU2Remove / kU2Contains) for helps <= n-1.
BoundReport check_u2_help_bound(const TraceAnalysis& a, int n = 0);
// Scenario-suite op (kScenarioOp): exactly 1 shared-memory access — the
// per-op cost contract of sim::run_scenario's generated writers, checked on
// traced large-n scenario artifacts.
BoundReport check_scenario_op_bound(const TraceAnalysis& a);
// Polylog-queue ops (kEnqueue / kDequeue): accesses ≤ 12·max(1, ⌈log2 n⌉)²
// (formula "clog2n" — c·⌈log2 n⌉², c = 12; the max(1, ·) keeps n = 1
// meaningful).
BoundReport check_queue_op_bound(const TraceAnalysis& a, int n = 0);

// Canonical formula for a bound name ("scan" → "n^2-1"); empty for unknown
// names. The CLI accepts `--bound name=formula` and requires the formula,
// spaces stripped, to match — a checksum that the invoker and the analyzer
// agree on which theorem is being re-derived.
std::string bound_formula(const std::string& name);

// One human-readable line per report, "PASS"/"FAIL"-prefixed.
std::string format_report(const BoundReport& r);

}  // namespace apram::obs
