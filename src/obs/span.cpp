#include "obs/span.hpp"

#include "util/assert.hpp"

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

void set_thread_span_tracer(Tracer* tracer, int pid) {
  if (tracer != nullptr) tracer->clear_spans(pid);
  detail::tls_spans = detail::AmbientSpans{tracer, pid};
}

namespace detail {

void traced_op_begin(OpKind kind) {
  tls_spans.tracer->op_begin(tls_spans.pid, kind);
}

void traced_op_end(OpKind kind) {
  const bool closed = tls_spans.tracer->op_end(tls_spans.pid, kind);
  APRAM_CHECK_MSG(closed, "op_end without a matching op_begin");
}

void traced_op_phase(Phase phase, int index) {
  tls_spans.tracer->event(tls_spans.pid, EventKind::kPhase, index,
                          static_cast<std::uint64_t>(phase));
}

void traced_op_help(int object) {
  tls_spans.tracer->event(tls_spans.pid, EventKind::kHelp, object,
                          /*arg=*/0);
}

}  // namespace detail

}  // namespace apram::obs
