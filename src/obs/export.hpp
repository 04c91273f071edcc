// apram::obs — the machine-readable JSON exporter, and where its artifacts
// go.
//
// The JSON schema is deliberately flat so CI can diff and assert on it:
//
//   {
//     "name": "bench_e4_scan_ops",
//     "counters":   { "rt.tree.reads": 35, ... },
//     "gauges":     { "e4.n": 6, ... },
//     "histograms": { "rt.scan.ns": { "count": 10, "sum": 123,
//                                     "mean": 12.3, "p50": 10, "p90": 14,
//                                     "p99": 15, "p999": 15.9,
//                                     "buckets": [[0,1],[2,4],...] } },
//     "events":     [ { "when": 0, "pid": 1, "kind": "read", "object": 3,
//                       "arg": 0, "op": 7 }, ... ]        // only if a tracer
//   }
//
// Histogram buckets are [lower_bound, count] pairs for non-empty buckets of
// the power-of-two histogram.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace apram::obs {

// Streams the registry (and optionally the tracer's surviving events) as one
// JSON object.
void export_json(std::ostream& os, const Registry& reg,
                 const Tracer* tracer = nullptr,
                 const std::string& name = "");

std::string to_json(const Registry& reg, const Tracer* tracer = nullptr,
                    const std::string& name = "");

// Writes export_json to `path` (aborts if the file cannot be written — a
// missing metrics artifact must fail loudly in CI, not silently pass).
void write_metrics_json(const std::string& path, const Registry& reg,
                        const Tracer* tracer = nullptr,
                        const std::string& name = "");

// Resolves a BARE artifact filename to a directory that is not the caller's
// cwd: $APRAM_ARTIFACT_DIR if set, else the running binary's directory
// (so source-dir invocations of tests/benches don't litter the tree), else
// the cwd as a last resort. A filename containing '/' is an explicit
// destination and is returned unchanged. Default artifact paths (test
// teardowns, BenchObs) must go through this; explicit --metrics_out values
// must not.
std::string artifact_path(const std::string& filename);

}  // namespace apram::obs
