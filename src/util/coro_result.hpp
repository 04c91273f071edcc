// CoroResult<T> — the result half of a coroutine promise.
//
// Every promise in the library (sim::ProcessTask, sim::SimCoro,
// api::EagerCoro) keeps what its body produced in the same way: the value
// passed to co_return (none for void) and the exception that escaped the
// body. A promise type derives from CoroResult<T> for return_value or
// return_void and unhandled_exception, and its coroutine hands the result
// out with take(), which rethrows an escaped exception.
#pragma once

#include <exception>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace apram {

template <class T>
struct CoroResult {
  void return_value(T v) { value = std::move(v); }
  void unhandled_exception() { exception = std::current_exception(); }

  // Once the body has finished: its value, or its exception rethrown.
  T take() {
    if (exception) std::rethrow_exception(exception);
    APRAM_CHECK_MSG(value.has_value(), "coroutine finished without a value");
    return std::move(*value);
  }

  std::optional<T> value;
  std::exception_ptr exception;
};

template <>
struct CoroResult<void> {
  void return_void() {}
  void unhandled_exception() { exception = std::current_exception(); }

  void take() {
    if (exception) std::rethrow_exception(exception);
  }

  std::exception_ptr exception;
};

}  // namespace apram
