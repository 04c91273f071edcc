// Real-thread atomic registers (the `apram::rt` runtime).
//
// The paper's model is atomic registers of any size ("numerous techniques
// exist for constructing large atomic registers from smaller ones"). The rt
// runtime realizes a register in one of two ways, chosen by value type:
//
//   * Inline (InlineRegister): T lives in place in one hardware atomic — a
//     std::atomic<T> when T fits a lock-free word, or a 16-byte-aligned
//     double word read with __atomic_load_n and swapped with lock
//     cmpxchg16b. These are the FArray leaves (int64), the FArray nodes
//     (Stamped<int64>) and the union-find parents (int32). Every inline
//     access is memory_order_seq_cst: algorithms argue over one total order
//     of register accesses, and the FArray double-refresh lemma needs a
//     process's leaf write visible before its next node read — a store then
//     a load of another location, which release/acquire lets the store
//     buffer reorder.
//
//   * Arena (BoundedSWMRRegister / BoundedCASValueRegister): any other T is
//     published as immutable versions in an rt::reclaim::VersionArena — a
//     64-bit control word packing {acquire count, arena slot}, wait-free
//     reader acquire/release, publication with count transfer, failed-CAS
//     cleanup, and per-writer free-list recycling. Memory is proportional to
//     concurrent holders, never to write count. See rt/reclaim.hpp for the
//     protocol and safety argument.
//
// SWMRRegister<T> and CASValueRegister<T> (bottom of this file) select the
// inline register whenever kInlineRegister<T> holds; there is no option.
// Reads return BY VALUE in both flavours and every read path is wait-free:
// inline is one load, arena is one fetch_add + one fetch_sub.
//
// Every register carries an optional apram::obs probe (attach_probe):
// unattached, an access pays one relaxed pointer load and a predictable
// branch; attached, each access is counted (relaxed fetch_add) and — when
// the calling thread has a model pid — traced with an rt timestamp.
//
// They also carry an optional apram::fault::RtInjector (attach_injector)
// that fires BEFORE the access takes effect — the injection point is the
// access boundary, the only place the model lets an adversary act. The
// arena registers add a second injection point, on_hold(), between a
// reader's acquire and its dereference: stalling there keeps a version
// pinned while writers churn, which is exactly the window a reclamation bug
// would need to free a held version (tests/rt_reclaim_test.cpp proves it
// cannot). Inline registers have no such window, so a kHold stall never
// engages on them. The unattached cost is the same one relaxed load + branch.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <type_traits>
#include <utility>

#include "fault/rt_inject.hpp"
#include "obs/rt_probe.hpp"
#include "rt/reclaim.hpp"
#include "util/assert.hpp"

// Whether a 16-byte value is inline depends on cmpxchg16b; a TU compiled
// without it would name a different register type than the rest of the
// program. apram_rt puts -mcx16 on its public interface.
#if defined(__x86_64__) && !defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
#error "rt/register.hpp needs -mcx16 on x86-64 (link apram_rt, which adds it)"
#endif

namespace apram::rt {

// ---------------------------------------------------------------------------
// Arena registers: VersionArena underneath, for values too large to inline.
// ---------------------------------------------------------------------------

template <class T>
class BoundedSWMRRegister {
 public:
  using value_type = T;

  explicit BoundedSWMRRegister(T initial) : arena_(1, std::move(initial)) {}

  BoundedSWMRRegister(const BoundedSWMRRegister&) = delete;
  BoundedSWMRRegister& operator=(const BoundedSWMRRegister&) = delete;

  // Any thread. Wait-free: one fetch_add (acquire), copy, one fetch_sub
  // (release). The returned value is the caller's own copy.
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    T v = arena_.get(ref);
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // Owner thread only (single writer). Wait-free: allocate (own free list),
  // one exchange to install, one fetch_add to transfer the old version's
  // acquire count.
  void write(T v) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    arena_.publish(arena_.alloc(0, std::move(v)));
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // Space diagnostics: number of values ever written (incl. the initial).
  // Monotone even though slots recycle.
  std::size_t versions() const {
    return static_cast<std::size_t>(arena_.stats().allocated);
  }

  reclaim::ReclaimStats reclaim_stats() const { return arena_.stats(); }

  // The probe must outlive the register (or a detaching attach_probe(nullptr)
  // call). Attach before concurrent use begins; the pointer itself is atomic,
  // but the probe's metric handles are read without further synchronization.
  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  // The injector must outlive the register (or a detaching
  // attach_injector(nullptr) call). Attach before concurrent use.
  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  mutable reclaim::VersionArena<T> arena_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// Multi-writer register with value-compared compare-and-swap over
// arbitrarily large values. compare_exchange compares the CURRENT VALUE
// with T's operator== — which must identify distinct writes (distinct
// published values never compare equal; Stamped<T> in farray/farray.hpp is
// the standard recipe) — and succeeds via a CAS on the arena control word.
// The caller's own acquire pins the expected version, so the control-word
// compare cannot ABA (a held slot cannot be retired, hence cannot be
// reallocated and re-published). A loser returns its prepared slot to the
// free list immediately (failed-CAS cleanup).
template <class T>
class BoundedCASValueRegister {
 public:
  using value_type = T;

  BoundedCASValueRegister(int num_writers, T initial)
      : arena_(num_writers, std::move(initial)) {
    APRAM_CHECK(num_writers >= 1);
  }

  BoundedCASValueRegister(const BoundedCASValueRegister&) = delete;
  BoundedCASValueRegister& operator=(const BoundedCASValueRegister&) = delete;

  // Any thread. Wait-free: acquire, copy, release.
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    T v = arena_.get(ref);
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // One atomic step by thread `pid`: if the current value equals `expected`
  // (T's operator==), install `desired` and return true. The reader-side
  // hold is released AFTER the install attempt (the ATOMSNAP CAS-ordering
  // rule): the hold is what makes the install ABA-free.
  bool compare_exchange(int pid, const T& expected, T desired) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    bool ok = arena_.get(ref) == expected;
    if (ok) {
      const std::uint32_t d = arena_.alloc(pid, std::move(desired));
      ok = arena_.try_publish(ref, d);
      if (!ok) arena_.dealloc(d);  // loser returns its slot immediately
    }
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Space diagnostics: values ever prepared (incl. the initial; counts slots
  // from failed swaps too). Monotone even though slots recycle.
  std::size_t versions() const {
    return static_cast<std::size_t>(arena_.stats().allocated);
  }

  reclaim::ReclaimStats reclaim_stats() const { return arena_.stats(); }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  mutable reclaim::VersionArena<T> arena_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// ---------------------------------------------------------------------------
// Inline registers: T held in place by one hardware atomic, no arena.
// ---------------------------------------------------------------------------

namespace detail {

// std::atomic<T>::is_always_lock_free behind a class, so that the
// std::conjunction below never names std::atomic<T> for a T it rejects.
template <class T>
struct AlwaysLockFree
    : std::bool_constant<std::atomic<T>::is_always_lock_free> {};

// Unique object representations: T's bits are its value (no padding, no
// floating point), so bit_cast round-trips and a CAS from loaded bits
// compares exactly what was loaded.
template <class T>
inline constexpr bool kWordInline =
    std::conjunction_v<std::is_trivially_copyable<T>,
                       std::is_copy_assignable<T>,
                       std::has_unique_object_representations<T>,
                       std::bool_constant<sizeof(T) <= 8>, AlwaysLockFree<T>>;

#if defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
inline constexpr bool kHaveCas16 = true;
#else
inline constexpr bool kHaveCas16 = false;
#endif

template <class T>
inline constexpr bool kDwordInline =
    kHaveCas16 && sizeof(T) == 16 && std::is_trivially_copyable_v<T> &&
    std::has_unique_object_representations_v<T>;

// A word-sized cell: std::atomic<T>. Bits == T.
template <class T>
class WordCell {
 public:
  using Bits = T;

  explicit WordCell(T v) : a_(v) {}

  Bits load() const { return a_.load(std::memory_order_seq_cst); }
  static T value(Bits b) { return b; }
  void store(T v) { a_.store(v, std::memory_order_seq_cst); }
  bool cas(Bits seen, T desired) {
    return a_.compare_exchange_strong(seen, desired,
                                      std::memory_order_seq_cst);
  }

 private:
  std::atomic<T> a_;
};

// A 16-byte cell: the load goes through __atomic_load_n (libatomic, which
// serves it as one vmovdqa on AVX CPUs), the CAS is one lock cmpxchg16b.
template <class T>
class DwordCell;

#if defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
template <class T>
class DwordCell {
 public:
  using Bits = unsigned __int128;

  explicit DwordCell(T v) : bits_(std::bit_cast<Bits>(v)) {}

  Bits load() const { return __atomic_load_n(&bits_, __ATOMIC_SEQ_CST); }
  static T value(Bits b) { return std::bit_cast<T>(b); }
  void store(T v) {
    __atomic_store_n(&bits_, std::bit_cast<Bits>(v), __ATOMIC_SEQ_CST);
  }
  bool cas(Bits seen, T desired) {
    return __sync_bool_compare_and_swap(&bits_, seen,
                                        std::bit_cast<Bits>(desired));
  }

 private:
  alignas(16) Bits bits_;
};
#endif

}  // namespace detail

// True when SWMRRegister<T> / CASValueRegister<T> hold T inline.
template <class T>
inline constexpr bool kInlineRegister =
    detail::kWordInline<T> || detail::kDwordInline<T>;

// One class serves both roles: write() is the single-writer store,
// compare_exchange() the multi-writer CAS. Every access is seq_cst and is
// one load, one store, or one load plus one CAS — never a loop — so every
// access is wait-free. The register owns its cache line (the hot cell plus
// the probe and injector pointers every access reads).
template <class T>
class alignas(64) InlineRegister {
  static_assert(kInlineRegister<T>,
                "InlineRegister needs a word or double-word value type");
  using Cell = std::conditional_t<detail::kWordInline<T>, detail::WordCell<T>,
                                  detail::DwordCell<T>>;

 public:
  using value_type = T;

  explicit InlineRegister(T initial) : cell_(initial) {}
  // CASValueRegister's constructor shape; no per-writer state is needed.
  InlineRegister(int num_writers, T initial) : cell_(initial) {
    APRAM_CHECK(num_writers >= 1);
  }

  InlineRegister(const InlineRegister&) = delete;
  InlineRegister& operator=(const InlineRegister&) = delete;

  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const T v = Cell::value(cell_.load());
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // Owner thread only when used as an SWMRRegister.
  void write(T v) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    cell_.store(v);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // One atomic step: load, compare with T's operator==, then CAS from the
  // LOADED bits (never from expected's). A stamped value whose operator==
  // looks only at the stamp therefore swaps whatever payload `expected`
  // carries. A lost CAS means a distinct write landed after the load; under
  // the operator==-identifies-writes contract it is != expected, so the
  // failure linearizes at the CAS.
  bool compare_exchange(int /*pid*/, const T& expected, T desired) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const typename Cell::Bits seen = cell_.load();
    const bool ok = Cell::value(seen) == expected && cell_.cas(seen, desired);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Nothing is versioned, so there is nothing to reclaim.
  reclaim::ReclaimStats reclaim_stats() const { return {}; }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  Cell cell_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// ---------------------------------------------------------------------------
// The names algorithms use: inline when kInlineRegister<T>, the arena
// otherwise. Every rt algorithm and api::RtBackend go through these.
// ---------------------------------------------------------------------------

template <class T>
using SWMRRegister = std::conditional_t<kInlineRegister<T>, InlineRegister<T>,
                                        BoundedSWMRRegister<T>>;
template <class T>
using CASValueRegister =
    std::conditional_t<kInlineRegister<T>, InlineRegister<T>,
                       BoundedCASValueRegister<T>>;

}  // namespace apram::rt
