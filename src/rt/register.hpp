// Real-thread atomic registers (the `apram::rt` runtime).
//
// The paper's model is atomic registers of any size ("numerous techniques
// exist for constructing large atomic registers from smaller ones"). The rt
// runtime has one register class, Register<T>, like the simulator's
// sim::Register<T>. Its storage cell is picked from T alone:
//
//   * Inline, when kInlineRegister<T>: T lives in place in one hardware
//     atomic — a std::atomic<T> when T fits a lock-free word, or a
//     16-byte-aligned double word read with __atomic_load_n and swapped with
//     lock cmpxchg16b. These are the FArray leaves (int64), the FArray nodes
//     (Stamped<int64>) and the union-find parents (int32). Every inline
//     access is memory_order_seq_cst: algorithms argue over one total order
//     of register accesses, and the FArray double-refresh lemma needs a
//     process's leaf write visible before its next node read — a store then
//     a load of another location, which release/acquire lets the store
//     buffer reorder.
//
//   * Arena, for any other T: immutable versions in an
//     rt::reclaim::VersionArena — a 64-bit control word packing {acquire
//     count, arena slot}, wait-free reader acquire/release, publication with
//     count transfer, failed-CAS cleanup, and per-writer free-list
//     recycling. Memory is proportional to concurrent holders, never to
//     write count. See rt/reclaim.hpp for the protocol and safety argument.
//
// write() is the single-writer store and compare_exchange() the multi-writer
// CAS; SWMRRegister<T> and CASValueRegister<T> (bottom of this file) are
// two names for Register<T>. There is no option. Reads return BY VALUE and
// every read path is wait-free: inline is one load, arena is one fetch_add
// + one fetch_sub.
//
// Every register carries an optional apram::obs probe (attach_probe):
// unattached, an access pays one relaxed pointer load and a predictable
// branch; attached, each access is counted (relaxed fetch_add) and — when
// the calling thread has a model pid — traced with an rt timestamp.
//
// It also carries an optional apram::fault::RtInjector (attach_injector)
// that fires BEFORE the access takes effect — the injection point is the
// access boundary, the only place the model lets an adversary act. An
// arena cell adds a second injection point, on_hold(), between a reader's
// acquire and its dereference: stalling there keeps a version pinned while
// writers churn, which is exactly the window a reclamation bug would need
// to free a held version (tests/rt_reclaim_test.cpp proves it cannot). An
// inline cell has no such window, so a kHold stall never engages on it.
// The unattached cost is the same one relaxed load + branch.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "fault/rt_inject.hpp"
#include "obs/rt_probe.hpp"
#include "rt/reclaim.hpp"
#include "util/assert.hpp"

// Whether a 16-byte value is inline depends on cmpxchg16b; a TU compiled
// without it would pick a different cell than the rest of the program.
// The apram target puts -mcx16 on its public interface.
#if defined(__x86_64__) && !defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
#error "rt/register.hpp needs -mcx16 on x86-64 (link apram, which adds it)"
#endif

namespace apram::rt {

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

// The storage cells. Register<T> performs every access through the same
// five calls, so each cell holds only what differs:
//   acquire()              take the current value: a load, or a version pin
//   value(seen)            the value taken
//   release(seen)          drop the pin (inline: nothing to drop)
//   store(v)               the single-writer write
//   install(pid, seen, d)  swap in d iff the cell still holds `seen`
// kPins says whether a value stays pinned between acquire and release,
// which is the window the injector's on_hold() parks a reader in.

// A word-sized cell: std::atomic<T>. Seen == T.
template <class T>
class WordCell {
 public:
  using Seen = T;
  static constexpr bool kPins = false;

  WordCell(int /*num_writers*/, T v) : a_(v) {}

  Seen acquire() const { return a_.load(std::memory_order_seq_cst); }
  static T value(Seen s) { return s; }
  static void release(Seen) {}
  void store(T v) { a_.store(v, std::memory_order_seq_cst); }
  bool install(int /*pid*/, Seen seen, T desired) {
    return a_.compare_exchange_strong(seen, desired,
                                      std::memory_order_seq_cst);
  }
  // Nothing is versioned, so there is nothing to reclaim.
  static reclaim::ReclaimStats stats() { return {}; }

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
  using Seen = unsigned __int128;
  static constexpr bool kPins = false;

  DwordCell(int /*num_writers*/, T v) : bits_(std::bit_cast<Seen>(v)) {}

  Seen acquire() const { return __atomic_load_n(&bits_, __ATOMIC_SEQ_CST); }
  static T value(Seen s) { return std::bit_cast<T>(s); }
  static void release(Seen) {}
  void store(T v) {
    __atomic_store_n(&bits_, std::bit_cast<Seen>(v), __ATOMIC_SEQ_CST);
  }
  bool install(int /*pid*/, Seen seen, T desired) {
    return __sync_bool_compare_and_swap(&bits_, seen,
                                        std::bit_cast<Seen>(desired));
  }
  static reclaim::ReclaimStats stats() { return {}; }

 private:
  alignas(16) Seen bits_;
};
#endif

// Any other T: versions in a VersionArena with one free list per writer.
// acquire() pins the current version until release(); value() is a
// reference into it, so a compare copies nothing.
template <class T>
class ArenaCell {
 public:
  using Seen = typename reclaim::VersionArena<T>::Ref;
  static constexpr bool kPins = true;

  ArenaCell(int num_writers, T v) : arena_(num_writers, std::move(v)) {}

  Seen acquire() const { return arena_.acquire(); }
  const T& value(Seen s) const { return arena_.get(s); }
  void release(Seen s) const { arena_.release(s); }

  // Allocates from writer 0's free list, whose pop is single-consumer, then
  // publishes by exchange: wait-free, and safe only with one writer.
  void store(T v) {
    APRAM_CHECK_MSG(arena_.num_writers() == 1,
                    "write() on a register built for several writers; its "
                    "arena's free lists have one consumer each — use "
                    "compare_exchange");
    arena_.publish(arena_.alloc(0, std::move(v)));
  }

  // The caller's pin on `seen` makes the control-word compare ABA-free (a
  // held slot cannot be retired, hence cannot be re-published), so the pin
  // is released only after this returns. A loser returns its prepared slot
  // to the free list at once (failed-CAS cleanup).
  bool install(int pid, Seen seen, T desired) {
    const std::uint32_t d = arena_.alloc(pid, std::move(desired));
    const bool ok = arena_.try_publish(seen, d);
    if (!ok) arena_.dealloc(d);
    return ok;
  }

  reclaim::ReclaimStats stats() const { return arena_.stats(); }

 private:
  reclaim::VersionArena<T> arena_;
};

}  // namespace detail

// True when Register<T> holds T inline.
template <class T>
inline constexpr bool kInlineRegister =
    detail::kWordInline<T> || detail::kDwordInline<T>;

// An atomic register over T. write() is the single-writer store (an arena
// register must be built for one writer to have it);
// compare_exchange(pid, ...) is the CAS, where pid < num_writers. Every
// access is wait-free: inline accesses are one load, one store, or one load
// plus one CAS — never a loop. The register owns its cache line (an inline
// cell plus the probe and injector pointers every access reads).
template <class T>
class alignas(64) Register {
  using Cell = std::conditional_t<
      detail::kWordInline<T>, detail::WordCell<T>,
      std::conditional_t<detail::kDwordInline<T>, detail::DwordCell<T>,
                         detail::ArenaCell<T>>>;

 public:
  explicit Register(T initial) : Register(1, std::move(initial)) {}
  Register(int num_writers, T initial)
      : cell_(num_writers, std::move(initial)) {
    APRAM_CHECK(num_writers >= 1);
  }

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;

  // Any thread. The returned value is the caller's own copy.
  T read() const {
    on_access();
    const auto seen = cell_.acquire();
    if constexpr (Cell::kPins) on_hold();
    T v = cell_.value(seen);
    cell_.release(seen);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // Owner thread only (single writer).
  void write(T v) {
    on_access();
    cell_.store(std::move(v));
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // One atomic step by thread `pid`: if the current value equals `expected`
  // (T's operator==, which must identify distinct writes — distinct
  // published values never compare equal; Stamped<T> in farray/farray.hpp
  // is the standard recipe), install `desired` and return true. The install
  // swaps from what acquire() took, never from `expected`, so a stamped
  // value whose operator== looks only at the stamp swaps whatever payload
  // `expected` carries. A lost install means a distinct write landed after
  // the acquire; under the contract it is != expected, so the failure
  // linearizes at the install.
  bool compare_exchange(int pid, const T& expected, T desired) {
    on_access();
    const auto seen = cell_.acquire();
    if constexpr (Cell::kPins) on_hold();
    const bool ok = cell_.value(seen) == expected &&
                    cell_.install(pid, seen, std::move(desired));
    cell_.release(seen);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Arena accounting: `allocated` counts values ever prepared (the initial,
  // every write, and the slots of lost CASes). An inline register reports
  // zeros.
  reclaim::ReclaimStats reclaim_stats() const { return cell_.stats(); }

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
  void on_access() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
  }
  void on_hold() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
  }

  Cell cell_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// The names algorithms use for the single-writer and the CAS role.
template <class T>
using SWMRRegister = Register<T>;
template <class T>
using CASValueRegister = Register<T>;

}  // namespace apram::rt
