// Shared atomic registers of the simulated asynchronous PRAM.
//
// A Register<T> is an atomic shared-memory cell. Processes access it only
// through a Context (their capability object), and every access —
// `co_await ctx.read(reg)` or `co_await ctx.write(reg, v)` — is exactly one
// atomic step of the model: the process suspends, the scheduler grants it the
// next step, and the access takes effect at the moment of resumption.
//
// Registers may optionally be declared single-writer (the common case in the
// paper: "multi-reader, single-writer registers in which process P writes the
// P-th array element"); writes by any other process abort the simulation.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>

#include "obs/span.hpp"
#include "sim/coro.hpp"
#include "util/assert.hpp"

namespace apram::sim {

class World;
class Context;

inline constexpr int kAnyWriter = -1;

// Type-erased base so the World can own heterogeneous registers. A
// register's identity is its id, its creation order in the World: traces
// and register_at() name it by that alone.
class RegisterBase {
 public:
  RegisterBase(int id, int writer) : id_(id), writer_(writer) {}
  virtual ~RegisterBase() = default;
  RegisterBase(const RegisterBase&) = delete;
  RegisterBase& operator=(const RegisterBase&) = delete;

  int id() const { return id_; }
  int writer() const { return writer_; }

 private:
  int id_;
  int writer_;  // pid of the unique writer, or kAnyWriter
};

template <class T>
class Register final : public RegisterBase {
 public:
  Register(int id, int writer, T initial)
      : RegisterBase(id, writer), value_(std::move(initial)) {}

  // Raw, step-free access. Only for test setup/inspection and for the World;
  // simulated processes must go through Context.
  const T& peek() const { return value_; }
  void poke(T v) { value_ = std::move(v); }

 private:
  friend class Context;
  T value_;
};

// Context: handed to each process body; the only way simulated code touches
// shared memory. Copyable by value but only valid while its World lives.
class Context {
 public:
  Context() = default;
  Context(World* world, int pid) : world_(world), pid_(pid) {}

  int pid() const { return pid_; }
  World& world() const { return *world_; }

  template <class T>
  auto read(const Register<T>& reg) const;

  template <class T>
  auto write(Register<T>& reg, T value) const;

  // Atomic compare-and-swap: one step of the extended model (counted as one
  // write; traced as obs::EventKind::kCas). The comparison uses T's
  // operator==, which must identify distinct writes for ABA-freedom — see
  // farray/farray.hpp's Stamped<T> for the standard recipe.
  template <class T>
  auto cas(Register<T>& reg, T expected, T desired) const;

  // Operation-span markers (obs/span.hpp): local bookkeeping, zero model
  // steps, no suspension. With no tracer attached they are no-ops, so
  // algorithms call them unconditionally. Explicit begin/end (not RAII) so a
  // crashed coroutine frame leaves its span open in the trace — which is the
  // truth of that execution. Defined in sim/world.hpp.
  void op_begin(obs::OpKind kind) const;
  void op_end(obs::OpKind kind) const;
  void op_phase(obs::Phase phase, int index = -1) const;
  void op_help(int object) const;

 private:
  World* world_ = nullptr;
  int pid_ = -1;
};

}  // namespace apram::sim
