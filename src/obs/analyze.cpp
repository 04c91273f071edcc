#include "obs/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "agreement/approx_agreement.hpp"
#include "farray/farray.hpp"
#include "snapshot/lattice_scan.hpp"
#include "util/assert.hpp"

namespace apram::obs {

namespace {

OpStats& stats_for(std::map<std::uint64_t, OpStats>& by_id,
                   std::vector<std::uint64_t>& order, std::uint64_t op) {
  auto [it, inserted] = by_id.try_emplace(op);
  if (inserted) {
    it->second.op = op;
    order.push_back(op);
  }
  return it->second;
}

}  // namespace

TraceAnalysis analyze(const std::vector<TraceEvent>& events) {
  TraceAnalysis out;
  std::map<std::uint64_t, OpStats> by_id;
  std::vector<std::uint64_t> order;

  for (const TraceEvent& ev : events) {
    if (ev.pid >= 0) out.num_pids = std::max(out.num_pids, ev.pid + 1);
    switch (ev.kind) {
      case EventKind::kOpBegin: {
        OpStats& s = stats_for(by_id, order, ev.op);
        s.pid = ev.pid;
        s.kind = static_cast<OpKind>(ev.arg);
        s.begin = ev.when;
        s.opened = true;
        break;
      }
      case EventKind::kOpEnd: {
        OpStats& s = stats_for(by_id, order, ev.op);
        // kOpEnd is self-describing (arg = kind) precisely so an end whose
        // begin was overwritten still identifies its operation.
        if (!s.opened) {
          s.pid = ev.pid;
          s.kind = static_cast<OpKind>(ev.arg);
        }
        s.end = ev.when;
        s.closed = true;
        break;
      }
      case EventKind::kTruncated:
        stats_for(by_id, order, ev.op).truncated = true;
        break;
      case EventKind::kPhase:
        if (ev.op != 0) ++stats_for(by_id, order, ev.op).phases;
        break;
      case EventKind::kHelp:
        if (ev.op != 0) ++stats_for(by_id, order, ev.op).helps;
        break;
      case EventKind::kRead:
      case EventKind::kWrite:
      case EventKind::kCas: {
        if (ev.op == 0) {
          ++out.untagged_accesses;
          break;
        }
        OpStats& s = stats_for(by_id, order, ev.op);
        if (ev.kind == EventKind::kRead) {
          ++s.reads;
        } else if (ev.kind == EventKind::kWrite) {
          ++s.writes;
        } else {
          ++s.cas_ops;
        }
        break;
      }
      case EventKind::kSpawn:
      case EventKind::kDone:
      case EventKind::kCrash:
      case EventKind::kUser:
        break;
    }
  }

  out.ops.reserve(order.size());
  for (std::uint64_t op : order) {
    OpStats& s = by_id[op];
    // An op referenced only by accesses/ends, with no surviving begin and no
    // marker, is truncated in effect (e.g. collected after a partial drain).
    if (!s.opened) s.truncated = true;
    if (s.truncated) {
      ++out.truncated_ops;
    } else if (!s.closed) {
      ++out.open_ops;
    }
    out.ops.push_back(s);
  }
  return out;
}

const OpStats* TraceAnalysis::find(std::uint64_t op) const {
  for (const OpStats& s : ops) {
    if (s.op == op) return &s;
  }
  return nullptr;
}

std::vector<const OpStats*> TraceAnalysis::complete_of(OpKind kind) const {
  std::vector<const OpStats*> out;
  for (const OpStats& s : ops) {
    if (s.kind == kind && s.complete()) out.push_back(&s);
  }
  return out;
}

// --- metrics-JSON loader ---------------------------------------------------
//
// Reads back exactly what obs::export_json writes: "name", the three metric
// sections and an optional "events" array of flat objects with numeric
// fields and a quoted "kind". Not a general JSON parser — it aborts on
// anything it does not recognise, which is the right behaviour for a CI
// bound checker (a malformed artifact must fail the check, not be
// half-read).

namespace {

struct Cursor {
  const std::string& s;
  std::size_t i = 0;

  bool done() const { return i >= s.size(); }
  void skip_ws() {
    while (!done() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool consume(char c) {
    skip_ws();
    if (done() || s[i] != c) return false;
    ++i;
    return true;
  }
  void expect(char c) {
    APRAM_CHECK_MSG(consume(c), "malformed metrics JSON: unexpected token");
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (!done() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;  // fields here never escape
      out.push_back(s[i]);
      ++i;
    }
    expect('"');
    return out;
  }

  std::int64_t number() {
    skip_ws();
    std::size_t end = i;
    if (end < s.size() && s[end] == '-') ++end;
    while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end])))
      ++end;
    APRAM_CHECK_MSG(end > i, "malformed metrics JSON: expected a number");
    const std::int64_t v = std::stoll(s.substr(i, end - i));
    i = end;
    return v;
  }

  // Histogram summaries (mean, percentiles) are streamed with default
  // ostream float formatting — "12.3", "1.2e+07" — so this accepts the
  // full [-+0-9.eE] alphabet and lets stod validate.
  double float_number() {
    skip_ws();
    std::size_t end = i;
    auto in_float = [&](char c) {
      return std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
             c == '+' || c == '.' || c == 'e' || c == 'E';
    };
    while (end < s.size() && in_float(s[end])) ++end;
    APRAM_CHECK_MSG(end > i, "malformed metrics JSON: expected a number");
    const double v = std::stod(s.substr(i, end - i));
    i = end;
    return v;
  }
};

// `{ "key": value, ... }`, calling one(key) with the cursor at each value.
template <class F>
void read_object(Cursor& cur, F&& one) {
  cur.expect('{');
  if (cur.consume('}')) return;
  do {
    const std::string key = cur.string_lit();
    cur.expect(':');
    one(key);
  } while (cur.consume(','));
  cur.expect('}');
}

// `[ item, ... ]`, calling one() with the cursor at each item.
template <class F>
void read_array(Cursor& cur, F&& one) {
  cur.expect('[');
  if (cur.consume(']')) return;
  do {
    one();
  } while (cur.consume(','));
  cur.expect(']');
}

MetricsDoc::HistSummary read_histogram(Cursor& cur) {
  MetricsDoc::HistSummary h;
  read_object(cur, [&](const std::string& key) {
    if (key == "count") {
      h.count = static_cast<std::uint64_t>(cur.number());
    } else if (key == "sum") {
      h.sum = static_cast<std::uint64_t>(cur.number());
    } else if (key == "mean") {
      h.mean = cur.float_number();
    } else if (key == "p50") {
      h.p50 = cur.float_number();
    } else if (key == "p90") {
      h.p90 = cur.float_number();
    } else if (key == "p99") {
      h.p99 = cur.float_number();
    } else if (key == "p999") {
      h.p999 = cur.float_number();
    } else if (key == "buckets") {
      read_array(cur, [&] {
        cur.expect('[');
        cur.number();
        cur.expect(',');
        cur.number();
        cur.expect(']');
      });
    } else {
      APRAM_CHECK_MSG(false, "malformed metrics JSON: unknown histogram key");
    }
  });
  return h;
}

TraceEvent read_event(Cursor& cur) {
  TraceEvent ev;
  read_object(cur, [&](const std::string& key) {
    if (key == "kind") {
      ev.kind = kind_from_name(cur.string_lit());
      return;
    }
    const std::int64_t v = cur.number();
    if (key == "when") {
      ev.when = static_cast<std::uint64_t>(v);
    } else if (key == "pid") {
      ev.pid = static_cast<std::int32_t>(v);
    } else if (key == "object") {
      ev.object = static_cast<std::int32_t>(v);
    } else if (key == "arg") {
      ev.arg = static_cast<std::uint64_t>(v);
    } else if (key == "op") {
      ev.op = static_cast<std::uint64_t>(v);
    } else {
      APRAM_CHECK_MSG(false, "malformed metrics JSON: unknown event key");
    }
  });
  return ev;
}

}  // namespace

const std::vector<TraceEvent>& MetricsDoc::trace() const {
  APRAM_CHECK_MSG(events.has_value(),
                  "trace artifact has no \"events\" array — was the bench "
                  "run with a tracer attached?");
  return *events;
}

MetricsDoc load_metrics_json(const std::string& path) {
  std::ifstream in(path);
  APRAM_CHECK_MSG(in.good(), "cannot open metrics artifact");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  MetricsDoc doc;
  int sections = 0;
  Cursor cur{text};
  read_object(cur, [&](const std::string& key) {
    if (key == "name") {
      doc.name = cur.string_lit();
    } else if (key == "counters") {
      ++sections;
      read_object(cur, [&](const std::string& name) {
        doc.counters[name] = static_cast<std::uint64_t>(cur.number());
      });
    } else if (key == "gauges") {
      ++sections;
      read_object(cur, [&](const std::string& name) {
        doc.gauges[name] = cur.number();
      });
    } else if (key == "histograms") {
      ++sections;
      read_object(cur, [&](const std::string& name) {
        doc.histograms[name] = read_histogram(cur);
      });
    } else if (key == "events") {
      doc.events.emplace();
      read_array(cur, [&] { doc.events->push_back(read_event(cur)); });
    } else {
      APRAM_CHECK_MSG(false, "malformed metrics JSON: unknown section");
    }
  });
  APRAM_CHECK_MSG(sections == 3,
                  "metrics artifact is missing a metric section");
  return doc;
}

// --- contention heatmap ----------------------------------------------------

namespace {

// One in-flight refresh level of one operation (see the header comment on
// contention_heatmap for the event grammar).
struct LevelSegment {
  int level = -1;
  int node = -1;  // register id of the CAS target
  int attempts = 0;
  int installed_attempt = -1;  // -1 = no successful CAS in this segment
};

void finalize_segment(ContentionHeatmap& hm, LevelSegment& seg) {
  if (seg.level < 0) return;
  if (hm.levels.size() <= static_cast<std::size_t>(seg.level)) {
    hm.levels.resize(static_cast<std::size_t>(seg.level) + 1);
  }
  ContentionTotals t;
  t.cas_attempts = static_cast<std::uint64_t>(seg.attempts);
  t.cas_failures = static_cast<std::uint64_t>(
      seg.attempts - (seg.installed_attempt >= 0 ? 1 : 0));
  if (seg.installed_attempt == 0) {
    t.first_refresh = 1;
  } else if (seg.installed_attempt >= 1) {
    t.second_refresh = 1;
  } else {
    t.helped = 1;  // no CAS of this walk installed — a rival covered it
  }
  hm.levels[static_cast<std::size_t>(seg.level)] += t;
  if (seg.node >= 0) {
    hm.nodes[seg.node] += t;
    hm.node_level[seg.node] = seg.level;
  }
  seg = LevelSegment{};
}

}  // namespace

ContentionHeatmap contention_heatmap(const std::vector<TraceEvent>& events) {
  ContentionHeatmap hm;
  std::map<std::uint64_t, LevelSegment> open;  // op → current level segment
  std::map<std::uint64_t, bool> walked;        // op saw ≥ 1 refresh phase

  for (const TraceEvent& ev : events) {
    if (ev.op == 0) continue;
    switch (ev.kind) {
      case EventKind::kPhase: {
        LevelSegment& seg = open[ev.op];
        finalize_segment(hm, seg);
        if (static_cast<Phase>(ev.arg) == Phase::kRefresh) {
          seg.level = ev.object;
          walked[ev.op] = true;
        }
        break;
      }
      case EventKind::kCas: {
        auto it = open.find(ev.op);
        if (it == open.end() || it->second.level < 0) break;
        LevelSegment& seg = it->second;
        seg.node = ev.object;
        if (ev.arg != 0 && seg.installed_attempt < 0) {
          seg.installed_attempt = seg.attempts;
        }
        ++seg.attempts;
        break;
      }
      case EventKind::kOpEnd:
      case EventKind::kTruncated: {
        auto it = open.find(ev.op);
        if (it != open.end()) {
          finalize_segment(hm, it->second);
          open.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  for (auto& [op, seg] : open) finalize_segment(hm, seg);
  for (const auto& [op, w] : walked) {
    if (w) ++hm.refresh_ops;
  }
  return hm;
}

int ContentionHeatmap::peak_level() const {
  int peak = -1;
  double best = -1.0;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (levels[l].walks() == 0) continue;
    const double r = levels[l].double_refresh_rate();
    if (r >= best) {  // ties → the higher level (closer to the root)
      best = r;
      peak = static_cast<int>(l);
    }
  }
  return peak;
}

// --- help graph ------------------------------------------------------------

namespace {

bool is_u2_kind(OpKind k) {
  return k == OpKind::kU2Execute || k == OpKind::kU2Insert ||
         k == OpKind::kU2Remove || k == OpKind::kU2Contains;
}

}  // namespace

HelpGraph help_graph(const std::vector<TraceEvent>& events) {
  HelpGraph g;
  // Pass 1: op → kind (begins and self-describing ends both carry it).
  std::map<std::uint64_t, OpKind> kind_of;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::kOpBegin || ev.kind == EventKind::kOpEnd) {
      kind_of[ev.op] = static_cast<OpKind>(ev.arg);
    }
  }
  // Pass 2: u2 kHelp edges — helper = event pid, helped = event object.
  std::map<std::uint64_t, std::set<int>> helped_of_op;
  for (const TraceEvent& ev : events) {
    if (ev.kind != EventKind::kHelp || ev.op == 0) continue;
    auto it = kind_of.find(ev.op);
    if (it == kind_of.end() || !is_u2_kind(it->second)) continue;
    const int helper = ev.pid;
    const int helped = ev.object;
    if (helper < 0 || helped < 0) continue;
    ++g.edges[{helper, helped}];
    ++g.total_helps;
    g.num_pids = std::max(g.num_pids, std::max(helper, helped) + 1);
    helped_of_op[ev.op].insert(helped);
  }
  for (const auto& [op, kind] : kind_of) {
    if (is_u2_kind(kind)) ++g.ops_seen;
  }
  for (const auto& [op, helped] : helped_of_op) {
    g.max_distinct_helped =
        std::max(g.max_distinct_helped, static_cast<std::uint64_t>(helped.size()));
  }
  return g;
}

std::uint64_t HelpGraph::given(int pid) const {
  std::uint64_t t = 0;
  for (const auto& [edge, count] : edges) {
    if (edge.first == pid) t += count;
  }
  return t;
}

std::uint64_t HelpGraph::received(int pid) const {
  std::uint64_t t = 0;
  for (const auto& [edge, count] : edges) {
    if (edge.second == pid) t += count;
  }
  return t;
}

// --- bound checks ----------------------------------------------------------

namespace {

int effective_n(const TraceAnalysis& a, int n) { return n > 0 ? n : a.num_pids; }

void check_ops(const TraceAnalysis& a, OpKind kind, BoundReport& report,
               const std::function<void(const OpStats&, BoundReport&)>& one) {
  for (const OpStats& s : a.ops) {
    if (s.kind != kind) continue;
    if (!s.complete()) {
      ++report.excluded;
      continue;
    }
    ++report.checked;
    one(s, report);
  }
}

void violation(BoundReport& report, const OpStats& s, const std::string& what,
               std::uint64_t got, std::uint64_t bound, int n) {
  std::ostringstream os;
  os << "op " << s.op << " pid " << s.pid << ": " << got << ' ' << what
     << " > bound " << bound << " (n=" << n << ")";
  report.violations.push_back(BoundViolation{s.op, s.pid, os.str()});
}

}  // namespace

BoundReport check_scan_bound(const TraceAnalysis& a, int n) {
  const int nn = effective_n(a, n);
  BoundReport report{.name = "scan", .formula = bound_formula("scan")};
  APRAM_CHECK_MSG(nn >= 1, "scan bound needs n >= 1");
  const std::uint64_t read_bound =
      expected_scan_reads(nn, ScanMode::kOptimized);
  const std::uint64_t write_bound =
      expected_scan_writes(nn, ScanMode::kOptimized);
  check_ops(a, OpKind::kScan, report,
            [&](const OpStats& s, BoundReport& r) {
              if (s.reads > read_bound)
                violation(r, s, "reads", s.reads, read_bound, nn);
              if (s.writes + s.cas_ops > write_bound)
                violation(r, s, "writes", s.writes + s.cas_ops, write_bound,
                          nn);
            });
  return report;
}

BoundReport check_tree_update_bound(const TraceAnalysis& a, int n) {
  const int nn = effective_n(a, n);
  BoundReport report{.name = "tree_update",
                     .formula = bound_formula("tree_update")};
  APRAM_CHECK_MSG(nn >= 1, "tree_update bound needs n >= 1");
  const std::uint64_t bound = farray::farray_write_max_accesses(nn);
  check_ops(a, OpKind::kTreeUpdate, report,
            [&](const OpStats& s, BoundReport& r) {
              if (s.accesses() > bound)
                violation(r, s, "accesses", s.accesses(), bound, nn);
            });
  return report;
}

BoundReport check_tree_scan_bound(const TraceAnalysis& a) {
  BoundReport report{.name = "tree_scan",
                     .formula = bound_formula("tree_scan")};
  check_ops(a, OpKind::kTreeScan, report,
            [&](const OpStats& s, BoundReport& r) {
              const std::uint64_t bound = farray::farray_read_accesses();
              if (s.accesses() > bound)
                violation(r, s, "accesses", s.accesses(), bound, a.num_pids);
            });
  return report;
}

BoundReport check_agreement_bound(const TraceAnalysis& a, double log_ratio,
                                  int n) {
  const int nn = effective_n(a, n);
  BoundReport report{.name = "agreement",
                     .formula = bound_formula("agreement")};
  APRAM_CHECK_MSG(nn >= 1, "agreement bound needs n >= 1");
  APRAM_CHECK_MSG(log_ratio >= 0.0, "agreement bound needs log2(delta/eps)");
  const double bound = agreement_step_bound(nn, log_ratio);
  const std::uint64_t ubound = static_cast<std::uint64_t>(bound);
  check_ops(a, OpKind::kOutput, report,
            [&](const OpStats& s, BoundReport& r) {
              if (static_cast<double>(s.accesses()) > bound)
                violation(r, s, "accesses", s.accesses(), ubound, nn);
            });
  return report;
}

BoundReport check_u2_help_bound(const TraceAnalysis& a, int n) {
  const int nn = effective_n(a, n);
  BoundReport report{.name = "u2_help", .formula = bound_formula("u2_help")};
  APRAM_CHECK_MSG(nn >= 1, "u2_help bound needs n >= 1");
  const std::uint64_t bound = static_cast<std::uint64_t>(nn) - 1;
  for (OpKind kind : {OpKind::kU2Execute, OpKind::kU2Insert,
                      OpKind::kU2Remove, OpKind::kU2Contains}) {
    check_ops(a, kind, report, [&](const OpStats& s, BoundReport& r) {
      if (s.helps > bound) violation(r, s, "helps", s.helps, bound, nn);
    });
  }
  return report;
}

BoundReport check_queue_op_bound(const TraceAnalysis& a, int n) {
  const int nn = effective_n(a, n);
  BoundReport report{.name = "queue_op", .formula = bound_formula("queue_op")};
  APRAM_CHECK_MSG(nn >= 1, "queue_op bound needs n >= 1");
  // c·⌈log2 n⌉² with c = 12, clamped so n = 1 still has a positive budget.
  const std::uint64_t h = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(farray::farray_height(nn)));
  const std::uint64_t bound = 12ull * h * h;
  for (OpKind kind : {OpKind::kEnqueue, OpKind::kDequeue}) {
    check_ops(a, kind, report, [&](const OpStats& s, BoundReport& r) {
      if (s.accesses() > bound)
        violation(r, s, "accesses", s.accesses(), bound, nn);
    });
  }
  return report;
}

BoundReport check_scenario_op_bound(const TraceAnalysis& a) {
  BoundReport report{.name = "scenario_op",
                     .formula = bound_formula("scenario_op")};
  check_ops(a, OpKind::kScenarioOp, report,
            [&](const OpStats& s, BoundReport& r) {
              if (s.accesses() != 1)
                violation(r, s, "accesses", s.accesses(), 1, a.num_pids);
            });
  return report;
}

std::string bound_formula(const std::string& name) {
  if (name == "scan") return "n^2-1";
  if (name == "tree_update") return "1+8ceil(log2n)";
  if (name == "tree_scan") return "1";
  if (name == "agreement") return "(2n+1)(log2(delta/eps)+3)+8n";
  if (name == "u2_help") return "n-1";
  if (name == "scenario_op") return "1";
  // Shorthand the CLI handshake uses for c·⌈log2 n⌉² with c = 12.
  if (name == "queue_op") return "clog2n";
  return "";
}

std::string format_report(const BoundReport& r) {
  std::ostringstream os;
  os << (r.ok() ? "PASS" : "FAIL") << ' ' << r.name << " (" << r.formula
     << "): " << r.checked << " ops checked";
  if (r.excluded != 0) os << ", " << r.excluded << " truncated/open excluded";
  if (!r.ok()) {
    os << ", " << r.violations.size() << " violation(s)";
    for (const BoundViolation& v : r.violations) os << "\n  " << v.detail;
  }
  return os.str();
}

}  // namespace apram::obs
