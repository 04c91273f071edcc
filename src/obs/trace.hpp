// apram::obs — bounded event tracer.
//
// One Tracer holds `num_rings` single-producer ring buffers of fixed
// capacity; ring i is written only by the thread acting as process i (the
// simulator's driver thread for every pid; in rt, the thread the harness
// pinned to pid i). Emitting overwrites the oldest slot when full — the
// newest events always survive, which is what post-mortem debugging wants.
//
// Hot-path budget: one slot copy plus one release store of the ring head.
// No allocation, no locking, no cross-thread stores.
//
// Reading (events()/drain()) is defined at quiescence only: after the sim
// run returns, or after the rt harness has joined its threads (the join
// provides the happens-before edge that makes every slot visible). Reading
// while producers are live is a contract violation, not a data race the
// tracer defends against.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "util/assert.hpp"

namespace apram::obs {

enum class EventKind : std::uint8_t {
  kRead,   // shared-register read (object = register id)
  kWrite,  // shared-register write
  kCas,    // compare-and-swap (arg = 1 on success, 0 on failure)
  kSpawn,  // process/thread started
  kDone,   // process/thread finished
  kCrash,  // process crashed (failure injection)
  kUser,   // free-form, producer-defined
  // Operation spans (obs/span.hpp). `op` is the span's operation id;
  // accesses emitted while a span is open carry the same id.
  kOpBegin,    // operation started (arg = obs::OpKind)
  kOpEnd,      // operation finished (arg = obs::OpKind, self-describing so a
               // surviving end whose begin was overwritten is identifiable)
  kPhase,      // named phase inside the current op (arg = obs::Phase,
               // object = phase index: pass / tree level / round)
  kHelp,       // the current op was helped by a rival (object = structure-
               // local node index; chrome export draws a flow arrow)
  kTruncated,  // synthesized by events()/drain(): op `op` lost its kOpBegin
               // to ring overwrite — analyzers must not count its accesses
};

const char* kind_name(EventKind k);

// Inverse of kind_name for trace loaders; aborts on an unknown name.
EventKind kind_from_name(const std::string& name);

struct TraceEvent {
  std::uint64_t when = 0;   // sim: global step index; rt: ns since epoch
  std::int32_t pid = 0;     // producing process/thread
  EventKind kind = EventKind::kUser;
  std::int32_t object = -1;  // register/object id, -1 when not applicable
  std::uint64_t arg = 0;     // event-specific payload
  std::uint64_t op = 0;      // owning operation id; 0 = no open span
};

class Tracer {
 public:
  // `num_rings` must cover every pid that will emit (ring = event pid).
  Tracer(int num_rings, std::size_t capacity_per_ring);

  int num_rings() const { return static_cast<int>(rings_.size()); }

  // Producer side — callable only by the thread owning ring ev.pid.
  void emit(const TraceEvent& ev);

  // Installs a deterministic 1-in-N span sampler (obs/sampler.hpp). Events
  // whose op is sampled out are rejected at emit() — they never enter a
  // ring, never count as recorded, and are tallied in sampled_out()
  // instead. Exact subset semantics: the decision is a pure function of
  // (seed, pid, op), so kept spans are complete and per-op bound checks
  // stay valid on the sampled population. Install before producers start;
  // swapping mid-run would split spans.
  void set_sampler(SpanSampler sampler) { sampler_ = sampler; }

  // Nanoseconds since this tracer's construction (rt timestamp source).
  std::uint64_t now_ns() const;

  // Fresh operation id for a span (obs/span.hpp). Ids are unique per tracer
  // across sim and rt producers; 0 is reserved for "no span".
  std::uint64_t next_op_id() {
    return next_op_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Quiescent readers -------------------------------------------------

  // All surviving events, merged across rings, ordered by (when, pid). In
  // the simulator `when` is the unique global step, so the order is exact.
  //
  // Ring overwrite can truncate a span: a surviving kOpEnd (or tagged
  // accesses) whose kOpBegin was overwritten. For each such op id a
  // kTruncated marker is synthesized at the ring's earliest surviving
  // timestamp, so analyzers report the op as truncated instead of
  // miscounting its accesses.
  std::vector<TraceEvent> events() const;

  // Exact accounting for one collection pass. The conservation law — every
  // emitted event is in exactly one bucket:
  //
  //   recorded() == survived + dropped()
  //
  // and synthesized kTruncated markers live in NONE of them: they are
  // appended to the OUTPUT vector only, never stored in ring slots, so they
  // can neither overwrite real events nor inflate the drop count.
  // Events a sampler rejected are a fourth, disjoint population
  // (sampled_out()) — rejected before recording, by design not a "drop".
  struct CollectStats {
    std::uint64_t survived = 0;     // real events copied out of the rings
    std::uint64_t synthesized = 0;  // kTruncated markers added to the output
  };

  std::vector<TraceEvent> events(CollectStats& stats) const;

  // events(), then resets every ring.
  std::vector<TraceEvent> drain();

  std::uint64_t recorded() const;  // total events accepted into rings
  std::uint64_t dropped() const;   // overwritten by ring overflow (exact:
                                   // max(0, head − capacity) per ring)
  std::uint64_t sampled_out() const {  // rejected by the span sampler
    return sampled_out_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};
    std::vector<TraceEvent> slots;
  };

  void collect(std::vector<TraceEvent>& out, CollectStats* stats) const;

  std::size_t cap_;
  std::vector<std::unique_ptr<Ring>> rings_;
  SpanSampler sampler_;  // rate 1 (keep everything) unless set_sampler'd
  std::atomic<std::uint64_t> sampled_out_{0};
  std::uint64_t retired_recorded_ = 0;  // carried across drain() resets
  std::uint64_t retired_dropped_ = 0;
  std::atomic<std::uint64_t> next_op_{1};  // 0 is "no span"
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace apram::obs
