#include "obs/trace.hpp"

#include <algorithm>
#include <set>

namespace apram::obs {

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kRead:
      return "read";
    case EventKind::kWrite:
      return "write";
    case EventKind::kCas:
      return "cas";
    case EventKind::kSpawn:
      return "spawn";
    case EventKind::kDone:
      return "done";
    case EventKind::kCrash:
      return "crash";
    case EventKind::kUser:
      return "user";
    case EventKind::kOpBegin:
      return "op_begin";
    case EventKind::kOpEnd:
      return "op_end";
    case EventKind::kPhase:
      return "phase";
    case EventKind::kHelp:
      return "help";
    case EventKind::kTruncated:
      return "truncated";
  }
  return "?";
}

EventKind kind_from_name(const std::string& name) {
  static constexpr EventKind kAll[] = {
      EventKind::kRead,    EventKind::kWrite, EventKind::kCas,
      EventKind::kSpawn,   EventKind::kDone,  EventKind::kCrash,
      EventKind::kUser,    EventKind::kOpBegin, EventKind::kOpEnd,
      EventKind::kPhase,   EventKind::kHelp,  EventKind::kTruncated,
  };
  for (EventKind k : kAll) {
    if (name == kind_name(k)) return k;
  }
  APRAM_CHECK_MSG(false, "unknown trace event kind name");
  return EventKind::kUser;  // unreachable
}

Tracer::Tracer(int num_rings, std::size_t capacity_per_ring)
    : cap_(capacity_per_ring), epoch_(std::chrono::steady_clock::now()) {
  APRAM_CHECK(num_rings >= 1);
  APRAM_CHECK(capacity_per_ring >= 1);
  rings_.reserve(static_cast<std::size_t>(num_rings));
  for (int i = 0; i < num_rings; ++i) {
    auto ring = std::make_unique<Ring>();
    ring->slots.resize(cap_);
    rings_.push_back(std::move(ring));
  }
}

void Tracer::op_begin(int pid, OpKind kind, std::uint64_t when) {
  Ring& r = ring(pid);
  APRAM_CHECK_MSG(r.depth < kMaxSpanDepth, "span stack overflow");
  const std::uint64_t op = next_op_.fetch_add(1, std::memory_order_relaxed);
  r.frames[r.depth++] = Frame{op, sampler_.keep(pid, op)};
  event(pid, EventKind::kOpBegin, /*object=*/-1,
        static_cast<std::uint64_t>(kind), when);
}

bool Tracer::op_end(int pid, OpKind kind, std::uint64_t when) {
  Ring& r = ring(pid);
  if (r.depth == 0) return false;
  event(pid, EventKind::kOpEnd, /*object=*/-1, static_cast<std::uint64_t>(kind),
        when);
  --r.depth;
  return true;
}

void Tracer::event(int pid, EventKind kind, std::int32_t object,
                   std::uint64_t arg, std::uint64_t when) {
  Ring& r = ring(pid);
  const Frame f = r.depth > 0 ? r.frames[r.depth - 1] : Frame{};
  if (!f.keep) {
    r.sampled_out.store(r.sampled_out.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    return;
  }
  emit(TraceEvent{when == kNow ? now_ns() : when, pid, kind, object, arg,
                  f.op});
}

void Tracer::lifecycle(int pid, EventKind kind, std::uint64_t when) {
  event(pid, kind, /*object=*/-1, /*arg=*/0, when);
  if (kind == EventKind::kCrash) clear_spans(pid);
}

void Tracer::clear_spans(int pid) { ring(pid).depth = 0; }

void Tracer::emit(const TraceEvent& ev) {
  Ring& r = ring(ev.pid);
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  r.slots[static_cast<std::size_t>(h % cap_)] = ev;
  r.head.store(h + 1, std::memory_order_release);
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::collect(std::vector<TraceEvent>& out) const {
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const Ring& ring = *rings_[r];
    const std::uint64_t h = ring.head.load(std::memory_order_acquire);
    const std::uint64_t start = h > cap_ ? h - cap_ : 0;
    const std::size_t first = out.size();
    for (std::uint64_t i = start; i < h; ++i) {
      out.push_back(ring.slots[static_cast<std::size_t>(i % cap_)]);
    }
    if (start == 0) continue;  // nothing overwritten in this ring
    // Ring overflow: any op id referenced by a surviving event of this ring
    // without a surviving kOpBegin lost its opening to overwrite. Mark each
    // once, at the ring's earliest surviving timestamp, so analyzers can
    // exclude the op instead of under-counting its accesses. Markers are
    // appended to `out` ONLY — they never occupy ring slots, so they cannot
    // displace real events or perturb the recorded/dropped conservation law
    // (see events() in the header).
    std::set<std::uint64_t> opened;
    std::set<std::uint64_t> referenced;
    for (std::size_t i = first; i < out.size(); ++i) {
      if (out[i].op == 0) continue;
      if (out[i].kind == EventKind::kOpBegin) {
        opened.insert(out[i].op);
      } else {
        referenced.insert(out[i].op);
      }
    }
    const std::uint64_t earliest = out[first].when;
    const std::int32_t pid = out[first].pid;
    for (std::uint64_t op : referenced) {
      if (opened.count(op) != 0) continue;
      out.push_back(TraceEvent{earliest, pid, EventKind::kTruncated,
                               /*object=*/-1, /*arg=*/0, op});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.when != b.when) return a.when < b.when;
                     return a.pid < b.pid;
                   });
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  collect(out);
  return out;
}

std::vector<TraceEvent> Tracer::drain() {
  std::vector<TraceEvent> out;
  collect(out);
  for (auto& ring : rings_) {
    const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
    retired_recorded_ += h;
    retired_dropped_ += h > cap_ ? h - cap_ : 0;
    ring->head.store(0, std::memory_order_relaxed);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = retired_recorded_;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Tracer::sampled_out() const {
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->sampled_out.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = retired_dropped_;
  for (const auto& ring : rings_) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    total += h > cap_ ? h - cap_ : 0;
  }
  return total;
}

}  // namespace apram::obs
