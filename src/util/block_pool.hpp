// A thread-local block pool for the small, short-lived heap blocks of the rt
// hot paths.
//
// An rt operation allocates and frees the same few small blocks over and
// over: every api::EagerCoro call allocates a coroutine frame. BlockPool
// serves them from per-thread free lists, one per size class, so the steady
// state makes no call into the heap allocator and touches no cache line
// another thread writes.
//
//   * Size classes are the multiples of kGranule (64 B) up to kMaxBlock
//     (1 KiB). A larger request goes straight to the heap.
//   * Each block is its own heap allocation of its class size, so a block
//     may be freed on any thread; it joins the freeing thread's cache.
//   * A thread caches at most kMaxCached blocks per class. Frees beyond that
//     go back to the heap.
//   * Thread exit returns the thread's cached blocks to the heap. A free
//     that arrives after that goes to the heap directly; this matters
//     because the main thread's thread_locals are destroyed before statics.
//   * Under AddressSanitizer a cached block is poisoned until it is handed
//     out again, so a use of a destroyed frame is still reported. There is
//     no bypass: sanitized builds run the same code path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
// asan_interface.h defines these as no-ops outside ASan builds; define the
// same no-ops where the header is absent.
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace apram {

class BlockPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBlock = 1024;
  static constexpr std::size_t kClasses = kMaxBlock / kGranule;
  static constexpr std::uint32_t kMaxCached = 64;

  static void* allocate(std::size_t bytes) {
    if (bytes > kMaxBlock) return ::operator new(bytes);
    const std::size_t c = class_of(bytes);
    Cache& cache = tl_cache_;
    FreeBlock* b = cache.head[c];
    if (b == nullptr) return ::operator new(class_bytes(c));
    ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(c));
    cache.head[c] = b->next;
    --cache.count[c];
    return b;
  }

  // `bytes` must be the size passed to the allocate() that returned `p`.
  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes > kMaxBlock) {
      ::operator delete(p);
      return;
    }
    const std::size_t c = class_of(bytes);
    Cache& cache = tl_cache_;
    if (cache.state != State::kLive) {
      if (cache.state == State::kDead) {
        ::operator delete(p);
        return;
      }
      arm();
    }
    if (cache.count[c] == kMaxCached) {
      ::operator delete(p);
      return;
    }
    cache.head[c] = ::new (p) FreeBlock{cache.head[c]};
    ++cache.count[c];
    ASAN_POISON_MEMORY_REGION(p, class_bytes(c));
  }

  // Blocks in the calling thread's cache, over all classes.
  static std::size_t cached_blocks() {
    std::size_t total = 0;
    for (const std::uint32_t n : tl_cache_.count) total += n;
    return total;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  enum class State : std::uint8_t { kUnarmed, kLive, kDead };

  struct Cache {
    FreeBlock* head[kClasses];
    std::uint32_t count[kClasses];
    State state;
  };

  // Hands the cache back to the heap when its thread exits.
  struct Reaper {
    Reaper() = default;
    Reaper(const Reaper&) = delete;
    Reaper& operator=(const Reaper&) = delete;
    ~Reaper() {
      Cache& cache = tl_cache_;
      for (std::size_t c = 0; c < kClasses; ++c) {
        while (FreeBlock* b = cache.head[c]) {
          ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(c));
          cache.head[c] = b->next;
          ::operator delete(b);
        }
        cache.count[c] = 0;
      }
      cache.state = State::kDead;
    }
  };

  static constexpr std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }
  static constexpr std::size_t class_bytes(std::size_t c) {
    return (c + 1) * kGranule;
  }

  // First cached block of this thread: registers the thread-exit drain.
  // Kept out of line so the hot path carries no TLS-guard check.
  [[gnu::noinline, gnu::cold]] static void arm() noexcept {
    static thread_local Reaper reaper;
    (void)reaper;
    tl_cache_.state = State::kLive;
  }

  // Constant-initialized and trivially destructible, so every access is a
  // plain thread-pointer-relative load with no initialization guard.
  static inline constinit thread_local Cache tl_cache_{};
};

}  // namespace apram
