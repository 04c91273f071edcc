// apram::obs — instrumentation probe for real-thread (rt) registers.
//
// An RtProbe bundles the metric handles and tracer one instrumented object
// reports into. Registers hold an atomic pointer to a probe; unattached, the
// hot-path overhead is one relaxed load and a predictable branch. Attached,
// each access costs one relaxed fetch_add per counter plus (if a tracer is
// set and the thread has a model pid) one Tracer::event call, which stamps
// the thread's innermost open op id and writes a ring slot unless the
// sampler dropped that span.
//
// Thread identity: trace rings are single-producer per pid, so probe events
// are emitted only from threads that declared which model process they act
// as (rt::parallel_run does this automatically). Threads without a pid still
// count — counters are safe from any thread — but produce no trace events.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace apram::obs {

// Model pid of the calling thread; -1 outside a harness body.
int thread_pid();
void set_thread_pid(int pid);

struct RtProbe {
  Counter* reads = nullptr;
  Counter* writes = nullptr;
  Counter* cas_ops = nullptr;
  Counter* cas_failures = nullptr;  // lost CASes only — the contention signal
  Tracer* tracer = nullptr;
  std::int32_t object = -1;

  void on_read() const {
    if (reads != nullptr) reads->add();
    emit(EventKind::kRead, 0);
  }

  void on_write() const {
    if (writes != nullptr) writes->add();
    emit(EventKind::kWrite, 0);
  }

  void on_cas(bool success) const {
    if (cas_ops != nullptr) cas_ops->add();
    if (!success && cas_failures != nullptr) cas_failures->add();
    emit(EventKind::kCas, success ? 1 : 0);
  }

 private:
  void emit(EventKind kind, std::uint64_t arg) const {
    if (tracer == nullptr) return;
    const int pid = thread_pid();
    if (pid < 0 || pid >= tracer->num_rings()) return;
    tracer->event(pid, kind, object, arg);
  }
};

}  // namespace apram::obs
