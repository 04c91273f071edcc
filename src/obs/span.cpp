#include "obs/span.hpp"

#include "obs/rt_probe.hpp"

namespace apram::obs {

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kNone:
      return "none";
    case OpKind::kScan:
      return "scan";
    case OpKind::kWriteL:
      return "write_l";
    case OpKind::kReadMax:
      return "read_max";
    case OpKind::kPost:
      return "post";
    case OpKind::kTreeUpdate:
      return "tree_update";
    case OpKind::kTreeScan:
      return "tree_scan";
    case OpKind::kInput:
      return "input";
    case OpKind::kOutput:
      return "output";
    case OpKind::kExecute:
      return "execute";
    case OpKind::kUser:
      return "user";
    case OpKind::kU2Execute:
      return "u2_execute";
    case OpKind::kU2Insert:
      return "u2_insert";
    case OpKind::kU2Remove:
      return "u2_remove";
    case OpKind::kU2Contains:
      return "u2_contains";
    case OpKind::kScenarioOp:
      return "scenario_op";
    case OpKind::kEnqueue:
      return "enqueue";
    case OpKind::kDequeue:
      return "dequeue";
    case OpKind::kUnion:
      return "union";
    case OpKind::kFind:
      return "find";
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kNone:
      return "none";
    case Phase::kCollect:
      return "collect";
    case Phase::kDoubleCollect:
      return "double_collect";
    case Phase::kRefresh:
      return "refresh";
    case Phase::kRound:
      return "round";
    case Phase::kPublish:
      return "publish";
    case Phase::kUser:
      return "user";
    case Phase::kFastPath:
      return "fast_path";
    case Phase::kSlowPath:
      return "slow_path";
  }
  return "?";
}

namespace {
thread_local Tracer* tls_span_tracer = nullptr;
thread_local SpanStack tls_spans;

// The ring owner contract of Tracer::emit: only emit when the thread has a
// model pid that maps to one of the tracer's rings.
int emitting_pid(const Tracer* tracer) {
  const int pid = thread_pid();
  if (pid < 0 || pid >= tracer->num_rings()) return -1;
  return pid;
}
}  // namespace

void set_thread_span_tracer(Tracer* tracer) {
  tls_span_tracer = tracer;
  tls_spans.depth = 0;
}

std::uint64_t thread_op() { return tls_spans.current(); }

void rt_op_begin(OpKind kind) {
  Tracer* tracer = tls_span_tracer;
  if (tracer == nullptr) return;
  const int pid = emitting_pid(tracer);
  if (pid < 0) return;
  const std::uint64_t id = tracer->next_op_id();
  tls_spans.push(id, kind);
  tracer->emit(TraceEvent{tracer->now_ns(), pid, EventKind::kOpBegin,
                          /*object=*/-1, static_cast<std::uint64_t>(kind),
                          id});
}

void rt_op_end(OpKind kind) {
  Tracer* tracer = tls_span_tracer;
  if (tracer == nullptr) return;
  const int pid = emitting_pid(tracer);
  if (pid < 0) return;
  const SpanStack::Frame frame = tls_spans.pop();
  tracer->emit(TraceEvent{tracer->now_ns(), pid, EventKind::kOpEnd,
                          /*object=*/-1, static_cast<std::uint64_t>(kind),
                          frame.op_id});
}

void rt_op_phase(Phase phase, int index) {
  Tracer* tracer = tls_span_tracer;
  if (tracer == nullptr) return;
  const int pid = emitting_pid(tracer);
  if (pid < 0) return;
  tracer->emit(TraceEvent{tracer->now_ns(), pid, EventKind::kPhase, index,
                          static_cast<std::uint64_t>(phase),
                          tls_spans.current()});
}

void rt_op_help(int object) {
  Tracer* tracer = tls_span_tracer;
  if (tracer == nullptr) return;
  const int pid = emitting_pid(tracer);
  if (pid < 0) return;
  tracer->emit(TraceEvent{tracer->now_ns(), pid, EventKind::kHelp, object,
                          /*arg=*/0, tls_spans.current()});
}

}  // namespace apram::obs
