// apram::obs — operation spans.
//
// The paper's claims are per-operation (a Scan costs n²−1 reads, a TreeScan
// update costs ≤ 1+8·⌈log2 n⌉ accesses, an agreement output finishes in
// (2n+1)·log2(Δ/ε)+O(n) steps), but raw trace events are per-register. A
// span ties the two together: an operation opens a span (kOpBegin), every
// access emitted while it is the innermost open span carries its op id, and
// closing it (kOpEnd) bounds the interval. Phases (kPhase) name the
// algorithm's internal structure — collect passes, tree levels, agreement
// rounds — and kHelp marks the double-refresh helping case.
//
// One propagation path for both backends: obs::Tracer keeps each pid's open
// spans next to its ring and stamps the innermost op id onto every event.
// sim::Context::op_begin() etc. call the World's tracer at the global step
// (zero model steps). In rt, RtBackend::Ctx's span calls go to the thread's
// ambient tracer (below) — inline, one TLS load and a branch without one —
// and RtProbe sends every probed access to its own tracer.
//
// Algorithms use the explicit begin/end calls, NOT RAII: a sim coroutine
// frame destroyed by a crash must leave its span open in the trace (that is
// the truth of the execution), which a destructor-emitted end would destroy.
// SpanScope below is RAII sugar for straight-line rt/test code only.
#pragma once

#include <cstdint>

#include "obs/trace.hpp"

namespace apram::obs {

// What operation a span represents (TraceEvent::arg of kOpBegin/kOpEnd).
enum class OpKind : std::uint8_t {
  kNone = 0,
  kScan,        // Figure 5 lattice Scan (§6.2: n²−1 reads, n+1 writes)
  kWriteL,      // Write_L — one Scan with the join discarded
  kReadMax,     // ReadMax — one Scan of ⊥
  kPost,        // one-write snapshot contribution (§6 closing paragraph)
  kTreeUpdate,  // TreeScan update (≤ 1+8·⌈log2 n⌉ accesses)
  kTreeScan,    // TreeScan scan (1 access)
  kInput,       // Figure 2 input()
  kOutput,      // Figure 2 output() (Theorem 5 bound)
  kExecute,     // universal construction execute() (Figure 4)
  kUser,        // free-form
  // universal2 (normalized fast/slow-path simulator). Appended after kUser
  // so the serialized numbers of the older kinds stay stable in traces.
  kU2Execute,   // universal2 one-shot object operation (e.g. counter)
  kU2Insert,    // universal2 sorted-set insert
  kU2Remove,    // universal2 sorted-set remove
  kU2Contains,  // universal2 sorted-set contains (fast-path only)
  // sim scenario suite (appended — see the note above). One scenario
  // operation = one shared-memory access, so apram-trace can certify the
  // per-op cost of million-process scenario runs (`scenario_op = 1`).
  kScenarioOp,
  // farray clients (appended — see the note above): the polylog queue
  // (`queue_op` certifies enqueue+dequeue against the O(log² n) envelope)
  // and the concurrent union-find.
  kEnqueue,  // PolylogQueue enqueue (≤ 1+8·⌈log2 n⌉ accesses)
  kDequeue,  // PolylogQueue dequeue (≤ 2+8·⌈log2 n⌉ accesses)
  kUnion,    // UnionFind unite
  kFind,     // UnionFind find / same_set / num_sets (queries)
};

const char* op_kind_name(OpKind k);

// Named phase inside an operation (TraceEvent::arg of kPhase; the event's
// object field carries the phase index — pass / tree level / round).
enum class Phase : std::uint8_t {
  kNone = 0,
  kCollect,        // one merge pass of the lattice Scan
  kDoubleCollect,  // a double-collect retry (baselines)
  kRefresh,        // one tree level's double-refresh (TreeScan update)
  kRound,          // one Figure 2 output-loop iteration
  kPublish,        // the anchor write of the universal construction
  kUser,
  // universal2 phases (appended — see the OpKind note above). The phase
  // index carries the attempt number on the fast path.
  kFastPath,       // one lock-free fast-path attempt (prepare + decision CAS)
  kSlowPath,       // entered the help queue (announce + help-until-done)
};

const char* phase_name(Phase p);

// --- rt span calls -----------------------------------------------------------
//
// They go to the calling thread's ambient tracer, on its pid's ring, both
// from its identity record (obs/metrics.hpp), which rt::parallel_run sets.

namespace detail {

// The traced halves of the rt_op_* calls, out of line in span.cpp.
void traced_op_begin(OpKind kind);
void traced_op_end(OpKind kind);
void traced_op_phase(Phase phase, int index);
void traced_op_help(int object);

}  // namespace detail

// Emit span events into the ambient tracer. Without one they are inline
// no-ops: one TLS load and a branch, with no call. rt_op_end aborts when
// the thread has no open span.
inline void rt_op_begin(OpKind kind) {
  if (detail::tls_thread.tracer != nullptr) detail::traced_op_begin(kind);
}
inline void rt_op_end(OpKind kind) {
  if (detail::tls_thread.tracer != nullptr) detail::traced_op_end(kind);
}
inline void rt_op_phase(Phase phase, int index = -1) {
  if (detail::tls_thread.tracer != nullptr) {
    detail::traced_op_phase(phase, index);
  }
}
inline void rt_op_help(int object) {
  if (detail::tls_thread.tracer != nullptr) detail::traced_op_help(object);
}

// RAII span for straight-line rt/test/bench code (NOT for sim coroutine
// bodies — see the header comment).
class SpanScope {
 public:
  explicit SpanScope(OpKind kind) : kind_(kind) { rt_op_begin(kind); }
  ~SpanScope() { rt_op_end(kind_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  OpKind kind_;
};

}  // namespace apram::obs
