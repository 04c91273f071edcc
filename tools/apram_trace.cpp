// apram-trace — offline trace analyzer CLI.
//
// Re-derives the paper's per-operation bounds from a --metrics_out JSON
// artifact (obs/export.hpp schema, "events" array) with no access to the
// program that produced it:
//
//   apram-trace summary <metrics.json>
//       Per-op-kind table: op count, access min/mean/max, helps, plus the
//       truncated/open-op and untagged-access totals.
//
//   apram-trace check <metrics.json> --bound scan --bound tree_update ...
//       Checks every complete operation of the named kinds against the
//       closed forms (obs/analyze.hpp). `--bound name=formula` additionally
//       requires `formula` (spaces stripped) to match the canonical formula
//       — a checksum that CI and the analyzer agree on which theorem is
//       being re-derived:
//
//         --bound scan=n^2-1
//         --bound tree_update=1+8ceil(log2n)
//         --bound tree_scan=1
//         --bound agreement --log_ratio <log2(delta/eps)>
//         --bound u2_help=n-1
//         --bound queue_op=clog2n
//
//       `--n N` overrides the process count (default: max pid + 1 in the
//       trace). Exit 0 iff every requested bound checked at least one
//       complete op and found no violation; a bound that checks zero ops
//       fails — a check that verified nothing must not pass CI.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/analyze.hpp"

namespace {

using apram::obs::BoundReport;
using apram::obs::OpKind;
using apram::obs::OpStats;
using apram::obs::TraceAnalysis;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  apram-trace summary <metrics.json>\n"
      "  apram-trace check <metrics.json> --bound <name[=formula]>...\n"
      "               [--n N] [--log_ratio X]\n"
      "  apram-trace heatmap <metrics.json> [--top K] [--json <out.json>]\n"
      "  apram-trace helpgraph <metrics.json> [--n N]\n"
      "  apram-trace diff <baseline.json> <current.json> [--top K]\n"
      "bounds: scan[=n^2-1]  tree_update[=1+8ceil(log2n)]  tree_scan[=1]\n"
      "        agreement[=(2n+1)(log2(delta/eps)+3)+8n] (needs --log_ratio)\n"
      "        u2_help[=n-1]  scenario_op[=1]  queue_op[=clog2n]\n");
  std::exit(2);
}

std::string strip_spaces(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

int run_summary(const std::string& path) {
  const TraceAnalysis a =
      apram::obs::analyze(apram::obs::load_events_json(path));

  std::printf("%-12s %6s %10s %10s %10s %7s\n", "op kind", "ops", "min",
              "mean", "max", "helps");
  static const OpKind kKinds[] = {
      OpKind::kScan,    OpKind::kWriteL,     OpKind::kReadMax,
      OpKind::kPost,    OpKind::kTreeUpdate, OpKind::kTreeScan,
      OpKind::kInput,   OpKind::kOutput,     OpKind::kExecute,
      OpKind::kUser,    OpKind::kU2Execute,  OpKind::kU2Insert,
      OpKind::kU2Remove, OpKind::kU2Contains, OpKind::kScenarioOp,
      OpKind::kEnqueue, OpKind::kDequeue,     OpKind::kUnion,
      OpKind::kFind,
  };
  for (OpKind kind : kKinds) {
    const std::vector<const OpStats*> ops = a.complete_of(kind);
    if (ops.empty()) continue;
    std::uint64_t lo = ~0ull, hi = 0, sum = 0, helps = 0;
    for (const OpStats* s : ops) {
      lo = std::min(lo, s->accesses());
      hi = std::max(hi, s->accesses());
      sum += s->accesses();
      helps += s->helps;
    }
    std::printf("%-12s %6zu %10llu %10.1f %10llu %7llu\n",
                apram::obs::op_kind_name(kind), ops.size(),
                static_cast<unsigned long long>(lo),
                static_cast<double>(sum) / static_cast<double>(ops.size()),
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(helps));
  }
  std::printf("pids: %d   truncated ops: %llu   open ops: %llu   "
              "untagged accesses: %llu\n",
              a.num_pids, static_cast<unsigned long long>(a.truncated_ops),
              static_cast<unsigned long long>(a.open_ops),
              static_cast<unsigned long long>(a.untagged_accesses));
  return 0;
}

int run_check(const std::string& path, const std::vector<std::string>& bounds,
              int n, double log_ratio) {
  const TraceAnalysis a =
      apram::obs::analyze(apram::obs::load_events_json(path));

  bool ok = true;
  for (const std::string& spec : bounds) {
    std::string name = spec;
    std::string formula;
    const std::size_t eq = spec.find('=');
    if (eq != std::string::npos) {
      name = spec.substr(0, eq);
      formula = strip_spaces(spec.substr(eq + 1));
    }
    const std::string canonical = apram::obs::bound_formula(name);
    if (canonical.empty()) {
      std::fprintf(stderr, "unknown bound name: %s\n", name.c_str());
      return 2;
    }
    if (!formula.empty() && formula != canonical) {
      std::fprintf(stderr,
                   "bound formula mismatch for %s: got \"%s\", the analyzer "
                   "derives \"%s\"\n",
                   name.c_str(), formula.c_str(), canonical.c_str());
      return 2;
    }

    BoundReport report;
    if (name == "scan") {
      report = apram::obs::check_scan_bound(a, n);
    } else if (name == "tree_update") {
      report = apram::obs::check_tree_update_bound(a, n);
    } else if (name == "tree_scan") {
      report = apram::obs::check_tree_scan_bound(a);
    } else if (name == "u2_help") {
      report = apram::obs::check_u2_help_bound(a, n);
    } else if (name == "scenario_op") {
      report = apram::obs::check_scenario_op_bound(a);
    } else if (name == "queue_op") {
      report = apram::obs::check_queue_op_bound(a, n);
    } else {
      if (log_ratio < 0.0) {
        std::fprintf(stderr, "--bound agreement requires --log_ratio\n");
        return 2;
      }
      report = apram::obs::check_agreement_bound(a, log_ratio, n);
    }

    std::printf("%s\n", apram::obs::format_report(report).c_str());
    if (!report.ok()) ok = false;
    if (report.checked == 0) {
      std::printf("FAIL %s: zero complete ops in the trace — nothing was "
                  "verified\n",
                  report.name.c_str());
      ok = false;
    }
  }
  if (a.truncated_ops != 0) {
    std::printf("note: %llu truncated op(s) excluded (ring overwrite)\n",
                static_cast<unsigned long long>(a.truncated_ops));
  }
  return ok ? 0 : 1;
}

// --- heatmap ---------------------------------------------------------------

using apram::obs::ContentionHeatmap;
using apram::obs::ContentionTotals;
using apram::obs::MetricsDoc;

// One table row in both the text and JSON renderings.
struct HeatRow {
  std::string label;
  ContentionTotals t;
};

void print_heat_table(const std::vector<HeatRow>& rows) {
  std::printf("%-10s %8s %8s %8s %8s %8s %8s %8s %8s\n", "level", "walks",
              "cas_att", "cas_fail", "fail%", "first", "second", "helped",
              "2xref%");
  for (const HeatRow& r : rows) {
    std::printf("%-10s %8llu %8llu %8llu %7.2f%% %8llu %8llu %8llu %7.2f%%\n",
                r.label.c_str(), static_cast<unsigned long long>(r.t.walks()),
                static_cast<unsigned long long>(r.t.cas_attempts),
                static_cast<unsigned long long>(r.t.cas_failures),
                100.0 * r.t.cas_fail_rate(),
                static_cast<unsigned long long>(r.t.first_refresh),
                static_cast<unsigned long long>(r.t.second_refresh),
                static_cast<unsigned long long>(r.t.helped),
                100.0 * r.t.double_refresh_rate());
  }
}

void write_heat_json(const std::string& path, const std::string& source,
                     const std::vector<HeatRow>& rows, int peak_level) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"source\": \"%s\",\n  \"peak_level\": %d,\n"
              "  \"rows\": [\n", source.c_str(), peak_level);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ContentionTotals& t = rows[i].t;
    std::fprintf(
        f,
        "    {\"label\": \"%s\", \"walks\": %llu, \"cas_attempts\": %llu, "
        "\"cas_failures\": %llu, \"first_refresh\": %llu, "
        "\"second_refresh\": %llu, \"helped\": %llu, "
        "\"cas_fail_rate\": %.6f, \"double_refresh_rate\": %.6f}%s\n",
        rows[i].label.c_str(), static_cast<unsigned long long>(t.walks()),
        static_cast<unsigned long long>(t.cas_attempts),
        static_cast<unsigned long long>(t.cas_failures),
        static_cast<unsigned long long>(t.first_refresh),
        static_cast<unsigned long long>(t.second_refresh),
        static_cast<unsigned long long>(t.helped), t.cas_fail_rate(),
        t.double_refresh_rate(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

// Gauge-derived fallback: reassemble per-level ContentionTotals from
// `<prefix>.level<k>.<field>` gauge names (obs/contention.cpp's export
// schema). Returns rows grouped per structure prefix.
std::vector<HeatRow> heat_rows_from_gauges(const MetricsDoc& doc) {
  std::vector<HeatRow> rows;
  std::map<std::string, ContentionTotals> by_scope;  // "<prefix>.level<k>"
  for (const auto& [name, value] : doc.gauges) {
    const std::size_t at = name.rfind(".level");
    if (at == std::string::npos) continue;
    const std::size_t dot = name.find('.', at + 1);
    if (dot == std::string::npos) continue;
    // digits between ".level" and the next '.'
    const std::string digits = name.substr(at + 6, dot - (at + 6));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const std::string scope = name.substr(0, dot);
    const std::string field = name.substr(dot + 1);
    ContentionTotals& t = by_scope[scope];
    const auto v = static_cast<std::uint64_t>(value);
    if (field == "cas_attempts") t.cas_attempts = v;
    else if (field == "cas_failures") t.cas_failures = v;
    else if (field == "first_refresh") t.first_refresh = v;
    else if (field == "second_refresh") t.second_refresh = v;
    else if (field == "helped") t.helped = v;
    // walks / *_rate are derived; recomputed by ContentionTotals itself.
  }
  for (auto& [scope, t] : by_scope) rows.push_back({scope, t});
  // Numeric level order within each prefix: ".level2" before ".level10".
  std::sort(rows.begin(), rows.end(), [](const HeatRow& a, const HeatRow& b) {
    const std::size_t pa = a.label.rfind(".level");
    const std::size_t pb = b.label.rfind(".level");
    const std::string sa = a.label.substr(0, pa);
    const std::string sb = b.label.substr(0, pb);
    if (sa != sb) return sa < sb;
    return std::atoi(a.label.c_str() + pa + 6) <
           std::atoi(b.label.c_str() + pb + 6);
  });
  return rows;
}

int run_heatmap(const std::string& path, int top,
                const std::string& json_out) {
  // Trace-derived when the artifact carries events; otherwise reassembled
  // from the exported contention gauges (rates recomputed from raw counts
  // either way).
  std::vector<apram::obs::TraceEvent> events;
  const MetricsDoc doc = apram::obs::load_metrics_json(path);
  if (apram::obs::metrics_json_has_events(path)) {
    events = apram::obs::load_events_json(path);
  }

  std::vector<HeatRow> rows;
  std::string source;
  int peak = -1;
  if (!events.empty()) {
    source = "trace";
    const ContentionHeatmap hm = apram::obs::contention_heatmap(events);
    for (std::size_t l = 0; l < hm.levels.size(); ++l) {
      rows.push_back({"level" + std::to_string(l), hm.levels[l]});
    }
    peak = hm.peak_level();
    std::printf("contention heatmap (trace-derived): %s\n", path.c_str());
    std::printf("refresh ops: %llu   levels: %zu   peak level: %d%s\n",
                static_cast<unsigned long long>(hm.refresh_ops),
                hm.levels.size(), peak,
                peak >= 0 && peak + 1 == static_cast<int>(hm.levels.size())
                    ? " (root)"
                    : "");
    print_heat_table(rows);
    // Hottest individual nodes by lost CASes — the register ids come from
    // the trace, so they are comparable within one structure only.
    std::vector<std::pair<int, ContentionTotals>> hot(hm.nodes.begin(),
                                                      hm.nodes.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second.cas_failures > b.second.cas_failures;
    });
    if (!hot.empty()) {
      std::printf("hottest nodes (by lost CASes):\n");
      for (std::size_t i = 0;
           i < hot.size() && i < static_cast<std::size_t>(top); ++i) {
        const auto lvl = hm.node_level.find(hot[i].first);
        std::printf(
            "  reg %-6d level %-3d walks %-8llu cas_fail %-8llu 2xref %.2f%%\n",
            hot[i].first, lvl == hm.node_level.end() ? -1 : lvl->second,
            static_cast<unsigned long long>(hot[i].second.walks()),
            static_cast<unsigned long long>(hot[i].second.cas_failures),
            100.0 * hot[i].second.double_refresh_rate());
      }
    }
  } else {
    source = "gauges";
    rows = heat_rows_from_gauges(doc);
    if (rows.empty()) {
      std::fprintf(stderr,
                   "%s has neither trace events nor contention gauges — "
                   "nothing to map\n",
                   path.c_str());
      return 1;
    }
    // Peak = highest double-refresh rate among walked scopes (ties → later
    // row, i.e. the higher level of its structure).
    double best = -1.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].t.walks() == 0) continue;
      const double r = rows[i].t.double_refresh_rate();
      if (r >= best) {
        best = r;
        peak = static_cast<int>(i);
      }
    }
    std::printf("contention heatmap (gauge-derived): %s\n", path.c_str());
    print_heat_table(rows);
    if (peak >= 0) {
      std::printf("peak row: %s\n", rows[static_cast<std::size_t>(peak)]
                                        .label.c_str());
    }
  }
  if (!json_out.empty()) write_heat_json(json_out, source, rows, peak);
  return 0;
}

// --- helpgraph -------------------------------------------------------------

int run_helpgraph(const std::string& path, int n) {
  const std::vector<apram::obs::TraceEvent> events =
      apram::obs::load_events_json(path);
  const apram::obs::HelpGraph g = apram::obs::help_graph(events);
  const TraceAnalysis a = apram::obs::analyze(events);
  const int procs = n > 0 ? n : a.num_pids;

  std::printf("help graph: %s\n", path.c_str());
  std::printf("u2 ops: %llu   help edges: %zu   total helps: %llu   "
              "max distinct helped per op: %llu (bound n-1 = %d)\n",
              static_cast<unsigned long long>(g.ops_seen), g.edges.size(),
              static_cast<unsigned long long>(g.total_helps),
              static_cast<unsigned long long>(g.max_distinct_helped),
              procs - 1);
  for (const auto& [edge, count] : g.edges) {
    std::printf("  p%-3d -> p%-3d %8llu\n", edge.first, edge.second,
                static_cast<unsigned long long>(count));
  }
  std::printf("%-6s %10s %10s\n", "pid", "given", "received");
  for (int p = 0; p < g.num_pids; ++p) {
    const std::uint64_t gv = g.given(p);
    const std::uint64_t rc = g.received(p);
    if (gv == 0 && rc == 0) continue;
    std::printf("p%-5d %10llu %10llu\n", p,
                static_cast<unsigned long long>(gv),
                static_cast<unsigned long long>(rc));
  }

  if (g.ops_seen == 0) {
    std::printf("FAIL helpgraph: no universal2 ops in the trace — nothing "
                "was verified\n");
    return 1;
  }

  // Cross-check: the graph's per-op maximum must tell the same story as the
  // independent span-walk bound check. Disagreement means one of the two
  // derivations is wrong — fail loudly either way.
  const BoundReport report = apram::obs::check_u2_help_bound(a, procs);
  std::printf("%s\n", apram::obs::format_report(report).c_str());
  const bool graph_ok =
      g.max_distinct_helped <= static_cast<std::uint64_t>(procs - 1);
  if (graph_ok != report.ok()) {
    std::printf("FAIL helpgraph: graph verdict (%s) disagrees with "
                "u2_help bound check (%s)\n", graph_ok ? "ok" : "violation",
                report.ok() ? "ok" : "violation");
    return 1;
  }
  return graph_ok ? 0 : 1;
}

// --- diff ------------------------------------------------------------------

int run_diff(const std::string& base_path, const std::string& cur_path,
             int top) {
  const MetricsDoc base = apram::obs::load_metrics_json(base_path);
  const MetricsDoc cur = apram::obs::load_metrics_json(cur_path);

  struct Delta {
    std::string name;
    double before = 0, after = 0, rel = 0;  // rel = (after-before)/|before|
  };
  std::vector<Delta> deltas;
  std::vector<std::string> added, removed;

  auto scan = [&](auto& base_map, auto& cur_map, const char* section) {
    for (const auto& [name, bv] : base_map) {
      auto it = cur_map.find(name);
      if (it == cur_map.end()) {
        removed.push_back(std::string(section) + "." + name);
        continue;
      }
      const double b = static_cast<double>(bv);
      const double c = static_cast<double>(it->second);
      if (b == c) continue;
      const double rel = b != 0.0 ? (c - b) / std::abs(b)
                                  : (c > 0 ? 1.0 : -1.0);
      deltas.push_back({std::string(section) + "." + name, b, c, rel});
    }
    for (const auto& [name, cv] : cur_map) {
      if (base_map.find(name) == base_map.end()) {
        added.push_back(std::string(section) + "." + name);
      }
    }
  };
  scan(base.counters, cur.counters, "counter");
  scan(base.gauges, cur.gauges, "gauge");
  for (const auto& [name, bh] : base.histograms) {
    auto it = cur.histograms.find(name);
    if (it == cur.histograms.end()) {
      removed.push_back("histogram." + name);
      continue;
    }
    auto hist_delta = [&](const char* stat, double b, double c) {
      if (b == c) return;
      const double rel = b != 0.0 ? (c - b) / std::abs(b)
                                  : (c > 0 ? 1.0 : -1.0);
      deltas.push_back({"histogram." + name + "." + stat, b, c, rel});
    };
    hist_delta("p50", bh.p50, it->second.p50);
    hist_delta("p99", bh.p99, it->second.p99);
    hist_delta("mean", bh.mean, it->second.mean);
  }
  for (const auto& [name, ch] : cur.histograms) {
    if (base.histograms.find(name) == base.histograms.end()) {
      added.push_back("histogram." + name);
    }
  }

  std::sort(deltas.begin(), deltas.end(), [](const Delta& a, const Delta& b) {
    return std::abs(a.rel) > std::abs(b.rel);
  });

  std::printf("metrics diff: %s -> %s\n", base_path.c_str(),
              cur_path.c_str());
  std::printf("%zu changed, %zu added, %zu removed (top %d by |relative "
              "change|)\n", deltas.size(), added.size(), removed.size(), top);
  for (std::size_t i = 0;
       i < deltas.size() && i < static_cast<std::size_t>(top); ++i) {
    std::printf("  %+9.2f%%  %-50s %14.6g -> %.6g\n", 100.0 * deltas[i].rel,
                deltas[i].name.c_str(), deltas[i].before, deltas[i].after);
  }
  for (const std::string& name : added) {
    std::printf("  added:   %s\n", name.c_str());
  }
  for (const std::string& name : removed) {
    std::printf("  removed: %s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];

  std::vector<std::string> bounds;
  std::string path2, json_out;
  int n = 0, top = 10;
  double log_ratio = -1.0;
  int i = 3;
  if (cmd == "diff") {
    if (argc < 4) usage();
    path2 = argv[3];
    i = 4;
  }
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      if (arg == flag && i + 1 < argc) return argv[++i];
      usage();
    };
    if (arg.rfind("--bound", 0) == 0) {
      bounds.push_back(value("--bound"));
    } else if (arg.rfind("--n", 0) == 0 && arg.rfind("--log", 0) != 0) {
      n = std::atoi(value("--n").c_str());
    } else if (arg.rfind("--log_ratio", 0) == 0) {
      log_ratio = std::atof(value("--log_ratio").c_str());
    } else if (arg.rfind("--top", 0) == 0) {
      top = std::atoi(value("--top").c_str());
    } else if (arg.rfind("--json", 0) == 0) {
      json_out = value("--json");
    } else {
      usage();
    }
  }

  if (cmd == "summary") {
    if (!bounds.empty()) usage();
    return run_summary(path);
  }
  if (cmd == "check") {
    if (bounds.empty()) usage();
    return run_check(path, bounds, n, log_ratio);
  }
  if (cmd == "heatmap") return run_heatmap(path, top, json_out);
  if (cmd == "helpgraph") return run_helpgraph(path, n);
  if (cmd == "diff") return run_diff(path, path2, top);
  usage();
}
