// apram::rt::reclaim — bounded-memory version management for rt registers.
//
// The paper assumes atomic registers of any size. An rt register whose value
// is too large for one hardware atomic publishes immutable versions instead,
// and a version cannot be freed while a reader may still dereference it.
// This header is the ATOMSNAP-style versioned arena (see SNIPPETS.md) that
// recycles each version once its last reader leaves, so memory is
// proportional to the number of *concurrently held* versions, not the
// number of writes:
//
//   * Control word. One 64-bit atomic packs {acquire count : 40 bits,
//     arena slot handle : 24 bits}. Reading the current version handle and
//     announcing the read is ONE atomic instruction (fetch_add of
//     1 << kSlotBits), so a publisher that swaps the word out learns exactly
//     how many readers acquired the outgoing version.
//
//   * Readers are wait-free. acquire() is one fetch_add on the control word;
//     release() is one fetch_sub on the slot's reference count. The last
//     holder out (which may be the publisher's transfer, below) retires the
//     slot to its allocating writer's free list.
//
//   * Publication transfers the count. A publisher installs {0, new_slot}
//     with release semantics (exchange for the single-writer register, CAS
//     for multi-writer), then adds the outgoing word's acquire count onto
//     the outgoing slot's reference count. Readers decrement that same
//     counter on release, so it reaches zero exactly when the transfer has
//     happened AND every acquirer has released — pre-transfer the count is
//     ≤ 0 (releases only), so no reader can be fooled by a transient zero.
//
//   * Failed-CAS cleanup. A CAS publisher that loses the race returns its
//     freshly allocated slot to the free list immediately (dealloc), so
//     losers do not leak.
//
//   * Recycling. Slots live in lazily allocated fixed-size chunks behind an
//     atomic chunk directory; retired slots destroy their payload eagerly
//     (bounding RSS, not just slot count) and are recycled through
//     per-writer Treiber free lists (push: any releasing thread, lock-free;
//     pop: the owning writer only, which makes the pop single-consumer and
//     ABA-safe without tags).
//
// Safety argument (why a held version is never recycled): a slot is retired
// only when its reference count reaches zero AFTER the publisher transferred
// the outer acquire count. Every acquire that observed the slot in the
// control word is included in that transferred count, and each holder
// contributes exactly one pending decrement, so the count is ≥ 1 until the
// last holder releases. Re-publication of a slot requires allocating it from
// a free list, which requires retirement first — so neither reclamation nor
// ABA on the publication CAS can touch a held version. See DESIGN.md
// (substitution table, "bounded versioned arena").
//
// Progress: acquire/release/deref are wait-free (single RMW each; the
// last-out retirement adds one lock-free free-list push). The single-writer
// publish is wait-free (one exchange + one transfer add). A CAS publisher is
// lock-free: its install CAS retries only while concurrent acquires bump the
// count of the expected slot (counted in ReclaimStats::acquire_contention).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace apram::rt::reclaim {

// Snapshot of an arena's bookkeeping, summed over its writers' counters.
// Every sum is exact once the harness has joined its threads. While threads
// run, each per-writer counter is exact at the instant it is loaded, but the
// writers are loaded one after another, so a sum can mix instants (same
// contract as obs counters); see live_versions() for what that means for
// `live`.
struct ReclaimStats {
  std::uint64_t allocated = 0;  // slots ever handed out (monotone)
  std::uint64_t live = 0;       // slots outside the free lists, see below
  std::uint64_t retired = 0;    // published versions whose last holder left
  std::uint64_t recycled = 0;   // allocations served from a free list
  std::uint64_t acquire_contention = 0;  // publish-CAS retries under acquires

  // Slots currently outside the free lists: the published version, versions
  // still held by readers, and slots a writer has allocated but not yet
  // published. Bounded by holders + writers + O(1), never by write count.
  // Exact for a single-writer register and at quiescence. Under
  // multi-writer churn the writers are loaded one after another, so a
  // sample may also count slots that changed hands between two loads: it
  // never underflows and stays near that bound, but only a quiescent sum is
  // exact.
  std::uint64_t live_versions() const { return live; }

  ReclaimStats& operator+=(const ReclaimStats& o) {
    allocated += o.allocated;
    live += o.live;
    retired += o.retired;
    recycled += o.recycled;
    acquire_contention += o.acquire_contention;
    return *this;
  }
};

// One register's version store: control word + slot pool + per-writer free
// lists. T is the register's value type; num_writers is the number of
// threads that may allocate/publish (1 for a single-writer register).
template <class T>
class VersionArena {
 public:
  // Control-word layout: {acquire count : 64-kSlotBits, slot : kSlotBits}.
  // 24 slot bits address 16M slots (the arena caps far below, see kMaxSlots);
  // the 40-bit count would need ~10^12 acquires of ONE version between two
  // publications to overflow — unreachable in any real execution.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kCountOne = std::uint64_t{1} << kSlotBits;

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkSize = 16;   // slots per chunk
  static constexpr std::uint32_t kMaxChunks = 512;  // 8192 slots per register
  static constexpr std::uint32_t kMaxSlots = kChunkSize * kMaxChunks;

  // A reader's handle on an acquired version. Valid until release().
  struct Ref {
    std::uint32_t slot;
  };

  VersionArena(int num_writers, T initial)
      : num_writers_(num_writers),
        free_(new FreeHead[static_cast<std::size_t>(num_writers)]) {
    APRAM_CHECK(num_writers >= 1);
    const std::uint32_t s = alloc(0, std::move(initial));
    ctrl_.word.store(pack(0, s), std::memory_order_release);
  }

  VersionArena(const VersionArena&) = delete;
  VersionArena& operator=(const VersionArena&) = delete;

  ~VersionArena() {
    const std::uint32_t used = next_fresh_.load(std::memory_order_acquire);
    const std::uint32_t chunks = (used + kChunkSize - 1) / kChunkSize;
    for (std::uint32_t c = 0; c < chunks && c < kMaxChunks; ++c) {
      delete chunks_[c].load(std::memory_order_acquire);
    }
  }

  // ---- reader path (wait-free) -------------------------------------------

  // One fetch_add: bumps the current version's outer count and returns its
  // handle. The acquire order pairs with the publisher's release install
  // (RMWs by other readers extend the release sequence, so any acquirer
  // synchronizes with the install it reads from).
  Ref acquire() const {
    const std::uint64_t w =
        ctrl_.word.fetch_add(kCountOne, std::memory_order_acquire);
    return Ref{slot_of(w)};
  }

  // Valid only between acquire() and release() of `ref`.
  const T& get(Ref ref) const { return *slot_at(ref.slot).value; }

  // One fetch_sub; the holder that brings the count to zero (possible only
  // after the publisher's transfer, see header) retires the slot.
  void release(Ref ref) const {
    Slot& s = slot_at(ref.slot);
    if (s.refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      retire(ref.slot);
    }
  }

  // ---- writer path -------------------------------------------------------

  // Allocates a slot (own free list first, fresh chunk slot otherwise) and
  // constructs the value in place. Caller must be thread `writer` — each
  // free list has a single consumer, which is what makes its pop ABA-safe.
  std::uint32_t alloc(int writer, T v) {
    std::uint32_t idx = pop_free(writer);
    const bool reused = idx != kNilSlot;
    if (!reused) idx = fresh_slot();
    Slot& s = slot_at(idx);
    s.owner = static_cast<std::uint32_t>(writer);
    s.value.emplace(std::move(v));
    FreeHead& mine = free_[static_cast<std::size_t>(writer)];
    bump(mine.allocated);
    if (reused) bump(mine.recycled);
    mine.live.fetch_add(1, std::memory_order_relaxed);
    return idx;
  }

  // Failed-CAS cleanup: destroys the never-published value and returns the
  // slot to its writer's free list immediately.
  void dealloc(std::uint32_t slot) { push_free(slot); }

  // Single-writer publication: install {0, slot} and transfer the outgoing
  // word's acquire count onto the outgoing slot.
  void publish(std::uint32_t slot) {
    const std::uint64_t old =
        ctrl_.word.exchange(pack(0, slot), std::memory_order_acq_rel);
    transfer(slot_of(old), count_of(old));
  }

  // CAS publication: installs {0, slot} iff the current version is still
  // `held` (which the caller has acquired — that hold is what makes the
  // 64-bit compare ABA-free: a held slot cannot retire, so it cannot be
  // reallocated and re-published). Retries only while concurrent acquires
  // move the count; returns false as soon as the version changed. On
  // success the caller's own hold is part of the transferred count, so the
  // caller must still release(held) afterwards (never before — the hold is
  // the ABA guard).
  bool try_publish(Ref held, std::uint32_t slot) {
    std::uint64_t w = ctrl_.word.load(std::memory_order_acquire);
    while (slot_of(w) == held.slot) {
      if (ctrl_.word.compare_exchange_weak(w, pack(0, slot),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        transfer(held.slot, count_of(w));
        return true;
      }
      // `slot` is unpublished, so its owner is the calling writer.
      bump(free_[slot_at(slot).owner].acquire_contention);
    }
    return false;
  }

  // ---- diagnostics -------------------------------------------------------

  int num_writers() const { return num_writers_; }

  // Sums the per-writer counters (see ReclaimStats for exactness).
  ReclaimStats stats() const {
    ReclaimStats out;
    for (int w = 0; w < num_writers_; ++w) {
      const FreeHead& f = free_[static_cast<std::size_t>(w)];
      out.allocated += f.allocated.load(std::memory_order_relaxed);
      out.live += f.live.load(std::memory_order_relaxed);
      out.retired += f.retired.load(std::memory_order_relaxed);
      out.recycled += f.recycled.load(std::memory_order_relaxed);
      out.acquire_contention +=
          f.acquire_contention.load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  // Slot layout: the reference count is hot (every release and every
  // transfer lands on it) and sits on its own cache line so those RMWs do
  // not invalidate the line readers stream the value from. next/owner are
  // touched only on the alloc/retire cold path.
  struct Slot {
    alignas(64) std::atomic<std::int64_t> refs{0};
    std::atomic<std::uint32_t> next{kNilSlot};  // free-list link
    std::uint32_t owner = 0;                    // writer whose list it joins
    alignas(64) std::optional<T> value;
  };

  struct Chunk {
    Slot slots[kChunkSize];
  };

  // The control word lives alone on its cache line: it is the single
  // hottest word (every read fetch_adds it), and sharing it with the chunk
  // directory or a writer's line would put other traffic in the
  // invalidation blast radius of every acquire.
  struct alignas(64) Ctrl {
    std::atomic<std::uint64_t> word{0};
  };

  // One writer's free list and statistics, on one line. A slot joins its
  // owner's list and is charged to its owner: `live` (+1 per alloc, −1 per
  // free-list push) and `retired` take RMWs from any releasing thread.
  // `allocated`, `recycled` and `acquire_contention` are bumped only by the
  // owning writer (the single-consumer rule pop_free relies on), so a
  // relaxed load + store suffices.
  struct alignas(64) FreeHead {
    std::atomic<std::uint32_t> head{kNilSlot};
    std::atomic<std::uint64_t> allocated{0};
    std::atomic<std::uint64_t> recycled{0};
    std::atomic<std::uint64_t> acquire_contention{0};
    // A slot's push happens after its alloc and both land on the owner's
    // `live`, whose modification order respects that, so each load is
    // exact for the writer and never underflows.
    std::atomic<std::uint64_t> live{0};
    std::atomic<std::uint64_t> retired{0};
  };

  // Owner-only increment: a plain load + store, no lock prefix.
  static void bump(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  static constexpr std::uint64_t pack(std::uint64_t count,
                                      std::uint32_t slot) {
    return (count << kSlotBits) | slot;
  }
  static constexpr std::uint32_t slot_of(std::uint64_t w) {
    return static_cast<std::uint32_t>(w & kSlotMask);
  }
  static constexpr std::uint64_t count_of(std::uint64_t w) {
    return w >> kSlotBits;
  }

  Slot& slot_at(std::uint32_t idx) const {
    Chunk* c = chunks_[idx / kChunkSize].load(std::memory_order_acquire);
    return c->slots[idx % kChunkSize];
  }

  // Bump allocation of a never-used slot; installs the owning chunk on
  // first touch (losing installers delete their copy). Exhaustion aborts
  // loudly — live slots are bounded by holders + writers + O(1), so hitting
  // the cap means a leaked acquire, not a capacity problem.
  std::uint32_t fresh_slot() {
    const std::uint32_t idx =
        next_fresh_.fetch_add(1, std::memory_order_relaxed);
    APRAM_CHECK_MSG(idx < kMaxSlots,
                    "VersionArena exhausted: more live versions than "
                    "readers+writers can hold — unbalanced acquire/release?");
    const std::uint32_t c = idx / kChunkSize;
    if (chunks_[c].load(std::memory_order_acquire) == nullptr) {
      Chunk* fresh = new Chunk();
      Chunk* expected = nullptr;
      if (!chunks_[c].compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        delete fresh;  // another allocator installed the chunk first
      }
    }
    return idx;
  }

  // Moves the outgoing word's acquire count onto the slot. Pre-transfer the
  // slot's count is -(releases so far) ≤ 0; post-transfer it equals the
  // number of outstanding holders, so zero here (or in release) means the
  // last holder is gone.
  void transfer(std::uint32_t slot, std::uint64_t acquires) const {
    Slot& s = slot_at(slot);
    const std::int64_t a = static_cast<std::int64_t>(acquires);
    if (s.refs.fetch_add(a, std::memory_order_acq_rel) + a == 0) {
      retire(slot);
    }
  }

  void retire(std::uint32_t slot) const {
    free_[slot_at(slot).owner].retired.fetch_add(1, std::memory_order_relaxed);
    push_free(slot);
  }

  // Lock-free multi-producer push onto the slot owner's free list. Destroys
  // the payload first so retired versions release their heap memory (RSS
  // stays flat, not just slot counts). The release order on the winning CAS
  // pairs with pop_free's acquire so the next allocator sees the reset.
  // `owner` is read before the push: once the slot is on the list its owner
  // may pop it and rewrite it.
  void push_free(std::uint32_t slot) const {
    Slot& s = slot_at(slot);
    s.value.reset();
    FreeHead& owner = free_[s.owner];
    std::atomic<std::uint32_t>& head = owner.head;
    std::uint32_t h = head.load(std::memory_order_relaxed);
    do {
      s.next.store(h, std::memory_order_relaxed);
    } while (!head.compare_exchange_weak(h, slot, std::memory_order_release,
                                         std::memory_order_relaxed));
    owner.live.fetch_sub(1, std::memory_order_relaxed);
  }

  // Single-consumer pop (only thread `writer` pops list `writer`): a CAS
  // loop that can lose only to concurrent pushes, and since nobody else
  // removes nodes the head cannot be recycled under us — no ABA tag needed.
  std::uint32_t pop_free(int writer) {
    std::atomic<std::uint32_t>& head =
        free_[static_cast<std::size_t>(writer)].head;
    std::uint32_t h = head.load(std::memory_order_acquire);
    while (h != kNilSlot) {
      const std::uint32_t next =
          slot_at(h).next.load(std::memory_order_relaxed);
      if (head.compare_exchange_weak(h, next, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        return h;
      }
    }
    return kNilSlot;
  }

  // Padding audit (see rt/arena.cpp for the whole-class checks): each hot
  // atomic owns its cache line. Slot::refs sits at offset 0 of a 64-aligned
  // struct and Slot::value is 64-aligned itself, so refcount RMWs and value
  // reads never invalidate each other's lines; Ctrl and FreeHead are
  // line-sized so the directory and the per-writer free lists and stats stay
  // out of the control word's invalidation blast radius, and writers do
  // not share a statistics line.
  static_assert(alignof(Slot) == 64 && sizeof(Slot) >= 128,
                "Slot refcount and payload must live on separate lines");
  static_assert(alignof(Ctrl) == 64 && sizeof(Ctrl) == 64,
                "control word must own its cache line");
  static_assert(alignof(FreeHead) == 64 && sizeof(FreeHead) == 64,
                "free-list heads must not share lines");

  int num_writers_;
  // Readers mutate the control word (the acquire fetch_add) and slot
  // refcounts from logically-const read paths; the arena's logical state —
  // the sequence of published values — is untouched by them.
  mutable Ctrl ctrl_;
  std::unique_ptr<FreeHead[]> free_;  // one per writer
  std::atomic<std::uint32_t> next_fresh_{0};
  mutable std::atomic<Chunk*> chunks_[kMaxChunks] = {};
};

}  // namespace apram::rt::reclaim
