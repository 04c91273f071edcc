// apram::obs — bounded event tracer.
//
// One Tracer holds `num_rings` single-producer ring buffers of fixed
// capacity; ring i is written only by the thread acting as process i (the
// simulator's driver thread for every pid; in rt, the thread the harness
// pinned to pid i). Emitting overwrites the oldest slot when full — the
// newest events always survive, which is what post-mortem debugging wants.
//
// The Tracer is the only code that builds a TraceEvent. Each ring also
// keeps its pid's stack of open operation spans (obs/span.hpp), which needs
// no synchronization for the same reason the ring does: one producer. Sim
// and rt producers call the same entry points, which stamp the innermost
// open op id onto every event.
//
// Hot-path budget: one slot copy plus one release store of the ring head.
// No allocation, no locking, no cross-thread stores. An event of a span the
// sampler dropped costs a plain per-ring count and no clock read.
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

enum class OpKind : std::uint8_t;  // obs/span.hpp

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

  // --- Producer side: only the thread owning ring `pid` ---------------
  //
  // `when` is the caller's timestamp (the simulator's global step); kNow
  // reads this tracer's ns clock, only for an event that is kept.
  static constexpr std::uint64_t kNow = ~std::uint64_t{0};

  // Opens a span with a fresh op id (unique per tracer, sim and rt alike)
  // and emits its kOpBegin; the sampler decides here, once, whether the
  // whole span is kept.
  void op_begin(int pid, OpKind kind, std::uint64_t when = kNow);

  // Emits the innermost span's kOpEnd and closes it. Returns false, having
  // emitted nothing, when pid has no open span.
  bool op_end(int pid, OpKind kind, std::uint64_t when = kNow);

  // An access (kRead/kWrite/kCas), kPhase or kHelp of pid, stamped with its
  // innermost open op id (0 outside any span).
  void event(int pid, EventKind kind, std::int32_t object, std::uint64_t arg,
             std::uint64_t when = kNow);

  // kSpawn, kDone or kCrash, stamped like event(). A kCrash carries the open
  // op id — that span stays open in the trace — and then clears pid's
  // stack, so the next incarnation starts outside any span.
  void lifecycle(int pid, EventKind kind, std::uint64_t when = kNow);

  // Forgets pid's open spans without emitting (a producer attaching).
  void clear_spans(int pid);

  // Appends a caller-built event as is: no stamping, no sampling (tests).
  void emit(const TraceEvent& ev);

  // Installs a deterministic 1-in-N span sampler (obs/sampler.hpp). The
  // events of a span it drops never enter a ring or count as recorded; they
  // are tallied in sampled_out() instead. Exact subset semantics: the
  // decision is a pure function of (seed, pid, op), so kept spans are
  // complete and per-op bound checks stay valid on the sampled population.
  // Install before producers start; swapping mid-run would split spans.
  void set_sampler(SpanSampler sampler) { sampler_ = sampler; }

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
  std::uint64_t sampled_out() const;  // events of spans the sampler dropped

 private:
  // Open spans nest at most execute → read_max → scan (depth 3) in the
  // library; 8 leaves headroom, and overflow is a programming error.
  static constexpr int kMaxSpanDepth = 8;
  struct Frame {
    std::uint64_t op = 0;
    bool keep = true;  // the sampler's decision for this span
  };

  struct Ring {
    alignas(64) std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> sampled_out{0};  // single writer: no RMW
    int depth = 0;
    Frame frames[kMaxSpanDepth];
    std::vector<TraceEvent> slots;
  };

  Ring& ring(int pid) {
    APRAM_CHECK_MSG(pid >= 0 && pid < num_rings(),
                    "trace event pid outside tracer rings");
    return *rings_[static_cast<std::size_t>(pid)];
  }
  std::uint64_t now_ns() const;  // since construction
  void collect(std::vector<TraceEvent>& out, CollectStats* stats) const;

  std::size_t cap_;
  std::vector<std::unique_ptr<Ring>> rings_;
  SpanSampler sampler_;  // rate 1 (keep everything) unless set_sampler'd
  std::uint64_t retired_recorded_ = 0;  // carried across drain() resets
  std::uint64_t retired_dropped_ = 0;
  std::atomic<std::uint64_t> next_op_{1};  // op ids; 0 is "no span"
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace apram::obs
