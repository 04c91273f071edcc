// apram::obs — flight recorder.
//
// The tracer already keeps a bounded last-K-events ring per pid; what was
// missing is the ejection seat — a single call that, at the moment a
// certifier detects a wait-freedom violation, lincheck rejects a history,
// or any layer hits an impossible state, freezes everything an engineer
// needs to replay the failure:
//
//   <dir>/<stem>.metrics.json  — the standard metrics artifact (export.hpp
//                                schema): every counter/gauge (including
//                                what the owner's snapshot hook refreshed —
//                                the fault certifier writes per-pid access
//                                counts), flight.* gauges counting
//                                open spans / truncated ops / drop+sample
//                                accounting, and the surviving events —
//                                loadable by apram-trace and
//                                obs::load_events_json unchanged.
//   <dir>/<stem>.schedule      — the trace projected onto scheduler grants
//                                (replay_artifact.hpp), annotated with the
//                                dump reason and the open spans, feedable to
//                                sim::replay for step-identical re-execution
//                                of sim runs.
//
// dump() is a quiescent-or-crashing-path operation: it reads the rings the
// way events() does, so concurrent producers can blur the very newest
// events but never corrupt the dump. Successive dumps get distinct stems
// (a sequence number), so a campaign that trips twice keeps both.
//
// panic_dump(reason) is the process-global hook: whoever owns the obs
// plumbing installs its recorder once (set_panic_recorder), and any layer —
// lincheck, APRAM_CHECK neighborhoods, signal handlers — can dump without
// threading a FlightRecorder& through APIs that otherwise never touch obs.
// With no recorder installed it is a no-op returning "", so library code
// may call it unconditionally.
#pragma once

#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace apram::obs {

class FlightRecorder {
 public:
  // Both pointers must outlive the recorder; `tracer` may be null (dump
  // then writes metrics only — no events, no schedule).
  FlightRecorder(Registry* registry, Tracer* tracer,
                 std::string stem = "flight")
      : registry_(registry), tracer_(tracer), stem_(std::move(stem)) {}

  // Output directory. Unset → obs::artifact_path resolution
  // ($APRAM_ARTIFACT_DIR, else the binary's directory).
  void set_dir(std::string dir) { dir_ = std::move(dir); }

  // Runs immediately before each dump's JSON export — the owner's chance to
  // refresh registry state that is normally exported at teardown (the fault
  // certifier writes per-pid access counts) so the dump carries a current
  // snapshot.
  void set_snapshot_hook(std::function<void()> hook) {
    snapshot_hook_ = std::move(hook);
  }

  // Writes the artifact pair; returns the metrics JSON path. `reason` is
  // recorded in the artifact name field and the schedule comments.
  std::string dump(const std::string& reason);

  std::uint64_t dumps() const { return dumps_; }

 private:
  Registry* registry_;
  Tracer* tracer_;
  std::string stem_;
  std::string dir_;
  std::function<void()> snapshot_hook_;
  std::mutex mu_;  // serializes dumps; seq under the same lock
  std::uint64_t dumps_ = 0;
};

// Installs `rec` as the process-global panic recorder (nullptr uninstalls).
// The recorder must outlive its installation.
void set_panic_recorder(FlightRecorder* rec);

// Dumps through the installed recorder; returns the metrics JSON path, or
// "" when no recorder is installed.
std::string panic_dump(const std::string& reason);

}  // namespace apram::obs
