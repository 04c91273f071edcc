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
// cached block and a nested call (write -> refresh_path) reuses one per
// level. A frame may be destroyed on another thread; its block then joins
// that thread's cache.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "util/assert.hpp"
#include "util/block_pool.hpp"

namespace apram::api {

namespace detail {

// Base of both promise types: coroutine frames come from the BlockPool.
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
  struct promise_type : detail::PooledFrame {
    EagerCoro get_return_object() {
      return EagerCoro{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { exception = std::current_exception(); }

    std::optional<T> value;
    std::exception_ptr exception;
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
    return take();
  }

  // Awaitable, for composition inside other EagerCoros. The child already
  // ran at its call site, so the await never suspends.
  bool await_ready() const noexcept { return handle_ && handle_.done(); }
  void await_suspend(std::coroutine_handle<>) const {
    APRAM_CHECK_MSG(false, "co_await on an unfinished EagerCoro");
  }
  T await_resume() { return take(); }

 private:
  T take() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    APRAM_CHECK_MSG(p.value.has_value(),
                    "EagerCoro finished without a value");
    return std::move(*p.value);
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] EagerCoro<void> {
 public:
  struct promise_type : detail::PooledFrame {
    EagerCoro get_return_object() {
      return EagerCoro{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    std::exception_ptr exception;
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

  void get() {
    APRAM_CHECK_MSG(handle_ && handle_.done(),
                    "EagerCoro did not run to completion — a suspending "
                    "awaiter leaked into an rt-backend coroutine");
    check();
  }

  bool await_ready() const noexcept { return handle_ && handle_.done(); }
  void await_suspend(std::coroutine_handle<>) const {
    APRAM_CHECK_MSG(false, "co_await on an unfinished EagerCoro");
  }
  void await_resume() { check(); }

 private:
  void check() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace apram::api
