// Concurrent histories for linearizability checking (§3.2).
//
// A RecordedOp is one completed (or pending) operation: who invoked what,
// what came back, and the window [invoke_time, respond_time) the operation
// occupied. The real-time precedence relation is derived from the windows:
// p precedes q iff p's response time is at most q's invocation time.
// Pending operations (no response — e.g. the caller crashed) have
// respond_time = kPending and may, per the definition of linearizability, be
// completed with any legal response or dropped entirely.
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "algebra/spec.hpp"

namespace apram {

inline constexpr std::uint64_t kPending =
    std::numeric_limits<std::uint64_t>::max();

template <SequentialSpec S>
struct RecordedOp {
  int pid = -1;
  typename S::Invocation inv{};
  typename S::Response resp{};
  std::uint64_t invoke_time = 0;
  std::uint64_t respond_time = kPending;

  bool pending() const { return respond_time == kPending; }
};

// Does a precede b in real time?
template <SequentialSpec S>
bool precedes(const RecordedOp<S>& a, const RecordedOp<S>& b) {
  return !a.pending() && a.respond_time <= b.invoke_time;
}

// Records a history, sim or rt (thread-safe). begin() and end() each take
// the next tick of the recorder's own clock, so windows are never empty and
// two ops of one process are ordered even when neither makes a shared
// access. A window spans the whole call, so no real-time precedence is
// invented: a history the checker accepts is genuinely linearizable.
template <SequentialSpec S>
class HistoryRecorder {
 public:
  // Marks an invocation; returns a token to close with.
  std::size_t begin(int pid, typename S::Invocation inv) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(RecordedOp<S>{pid, std::move(inv), {}, clock_++, kPending});
    return ops_.size() - 1;
  }

  void end(std::size_t token, typename S::Response resp) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_[token].resp = std::move(resp);
    ops_[token].respond_time = clock_++;
  }

  // The recorded history; call at quiescence. Leaves the recorder empty.
  std::vector<RecordedOp<S>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(ops_, {});
  }

 private:
  std::mutex mu_;
  std::uint64_t clock_ = 0;
  std::vector<RecordedOp<S>> ops_;
};

}  // namespace apram
