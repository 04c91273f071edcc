// Lightweight always-on assertion macros for libapram.
//
// Unlike <cassert>, these fire in release builds too: the library's
// correctness claims (linearizability, lattice laws, step bounds) are the
// whole point of the project, so internal invariant violations must never be
// silently ignored in optimized benchmark runs.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace apram {

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "[apram] assertion failed: %s\n  at %s:%d\n  %s\n",
               expr, file, line, msg ? msg : "");
  std::abort();
}

}  // namespace apram

#define APRAM_CHECK(expr)                                          \
  do {                                                             \
    if (!(expr)) ::apram::assert_fail(#expr, __FILE__, __LINE__, nullptr); \
  } while (0)

#define APRAM_CHECK_MSG(expr, msg)                                \
  do {                                                            \
    if (!(expr)) ::apram::assert_fail(#expr, __FILE__, __LINE__, msg); \
  } while (0)
