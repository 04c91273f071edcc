// Coroutine plumbing for the asynchronous PRAM simulator.
//
// A simulated process is a C++20 coroutine that suspends at every shared
// memory access; the enclosing World resumes it one atomic step at a time
// under the control of a Scheduler. Two coroutine types are defined here:
//
//  * ProcessTask — the top-level coroutine of a simulated process. It starts
//    suspended and, when it finally completes, simply parks at its final
//    suspend point so the World can observe `done()`.
//
//  * SimCoro<T> — an awaitable sub-coroutine, used to write shared-memory
//    procedures (e.g. the Figure 5 Scan) as reusable building blocks. When a
//    process `co_await`s a SimCoro, control transfers symmetrically into the
//    child; when the child suspends on a register access, the whole process
//    is suspended (the World records the innermost handle as the process's
//    resume point); when the child completes, control transfers back to the
//    parent without bouncing through the scheduler.
//
// No coroutine here ever touches a thread: the simulator is single-threaded
// and deterministic by construction.
#pragma once

#include <coroutine>
#include <utility>

#include "util/coro_result.hpp"

namespace apram::sim {

// ---------------------------------------------------------------------------
// ProcessTask
// ---------------------------------------------------------------------------

class [[nodiscard]] ProcessTask {
 public:
  struct promise_type : CoroResult<void> {
    ProcessTask get_return_object() {
      return ProcessTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
  };

  ProcessTask() = default;
  explicit ProcessTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  ProcessTask(ProcessTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  ProcessTask& operator=(ProcessTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ProcessTask(const ProcessTask&) = delete;
  ProcessTask& operator=(const ProcessTask&) = delete;
  ~ProcessTask() { destroy(); }

  std::coroutine_handle<promise_type> handle() const { return handle_; }
  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  // Rethrows any exception that escaped the process body.
  void check() const {
    if (handle_) handle_.promise().take();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// ---------------------------------------------------------------------------
// SimCoro<T>
// ---------------------------------------------------------------------------

namespace detail {

// SimCoro's final awaiter: symmetric-transfers back to the awaiting
// (parent) coroutine, or to noop if awaited nowhere (not expected).
template <class Promise>
struct FinalTransferAwaiter {
  bool await_ready() noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

}  // namespace detail

template <class T>
class [[nodiscard]] SimCoro {
 public:
  struct promise_type : CoroResult<T> {
    SimCoro get_return_object() {
      return SimCoro{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalTransferAwaiter<promise_type> final_suspend() noexcept {
      return {};
    }

    std::coroutine_handle<> continuation;
  };

  explicit SimCoro(std::coroutine_handle<promise_type> h) : handle_(h) {}
  SimCoro(SimCoro&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  SimCoro(const SimCoro&) = delete;
  SimCoro& operator=(const SimCoro&) = delete;
  SimCoro& operator=(SimCoro&&) = delete;
  ~SimCoro() {
    if (handle_) handle_.destroy();
  }

  // Awaitable interface: start the child immediately via symmetric transfer.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) {
    handle_.promise().continuation = parent;
    return handle_;
  }
  T await_resume() { return handle_.promise().take(); }

 private:
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace apram::sim
