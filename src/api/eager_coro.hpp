// EagerCoro — the rt backend's coroutine type.
//
// Algorithms in this library are written once as coroutine templates over a
// register backend (see api/backend.hpp). Under the simulator the backend's
// awaiters suspend at every shared-memory access and the Scheduler drives
// the interleaving. Under the rt backend every awaiter is ready
// (await_ready() == true): the hardware interleaves threads, so there is
// nothing to hand control to. An EagerCoro makes that concrete — it starts
// executing at the call (initial_suspend is suspend_never) and, because no
// rt awaiter ever suspends, runs synchronously to completion. The caller
// retrieves the result with get(), or co_awaits it from an enclosing
// EagerCoro (the await is a no-op value fetch).
//
// Every call still needs a coroutine frame, but the frame does not come from
// the heap: the promise's operator new/delete take it from the calling
// thread's BlockPool (util/block_pool.hpp), so a steady-state call reuses a
// cached block and a nested call (a walking TreeScan update -> FArray
// write) reuses one per level. A frame may be destroyed on another thread;
// its block then joins that thread's cache. A frame still costs an
// allocation, a resume and a destroy, so a call that makes one access and
// nothing else, or no access at all, is written as an awaiter, not a
// coroutine: FArray's read_f hands back the backend's read awaiter of the
// root, so an rt TreeScan scan runs in one frame, its own; and a
// self-covered TreeScan update hands back an awaitable that is already
// done, so it runs in none.
#pragma once

#include <coroutine>
#include <cstddef>
#include <utility>

#include "util/assert.hpp"
#include "util/block_pool.hpp"
#include "util/coro_result.hpp"

namespace apram::api {

namespace detail {

// Base of the promise type: coroutine frames come from the BlockPool.
struct PooledFrame {
  static void* operator new(std::size_t bytes) {
    return BlockPool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    BlockPool::deallocate(frame, bytes);
  }
};

}  // namespace detail

template <class T>
class [[nodiscard]] EagerCoro {
 public:
  // PooledFrame is empty, so the promise is just its result half: the
  // value, then the exception.
  struct promise_type : detail::PooledFrame, CoroResult<T> {
    EagerCoro get_return_object() {
      return EagerCoro{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
  };

  explicit EagerCoro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  EagerCoro(EagerCoro&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  EagerCoro(const EagerCoro&) = delete;
  EagerCoro& operator=(const EagerCoro&) = delete;
  EagerCoro& operator=(EagerCoro&&) = delete;
  ~EagerCoro() {
    if (handle_) handle_.destroy();
  }

  T get() {
    APRAM_CHECK_MSG(handle_ && handle_.done(),
                    "EagerCoro did not run to completion — a suspending "
                    "awaiter leaked into an rt-backend coroutine");
    return handle_.promise().take();
  }

  // Awaitable, for composition inside other EagerCoros. The child already
  // ran at its call site, so the await never suspends.
  bool await_ready() const noexcept { return handle_ && handle_.done(); }
  void await_suspend(std::coroutine_handle<>) const {
    APRAM_CHECK_MSG(false, "co_await on an unfinished EagerCoro");
  }
  T await_resume() { return handle_.promise().take(); }

 private:
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace apram::api
