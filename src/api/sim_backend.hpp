// SimBackend — the asynchronous-PRAM simulator as a register backend.
//
// Thin glue: Ctx is sim::Context (whose read/write/cas awaiters suspend the
// process for one scheduler-granted step each), Coro is sim::SimCoro
// (symmetric-transfer subcoroutines), and Mem is the sim::World itself: its
// make<T>(init, writer) / make_cas<T>(init) are the concept's two calls, and
// a register is identified by its creation-order id, as in every trace.
#pragma once

#include <type_traits>

#include "api/backend.hpp"
#include "sim/coro.hpp"
#include "sim/register.hpp"
#include "sim/world.hpp"

namespace apram::api {

struct SimBackend {
  using Ctx = sim::Context;
  using Mem = sim::World;
  template <class T>
  using Reg = sim::Register<T>;
  template <class T>
  using CasReg = sim::Register<T>;
  template <class T>
  using Coro = sim::SimCoro<T>;
};

static_assert(CasBackendFor<SimBackend, int>);
static_assert(std::is_same_v<SimBackend::Mem, sim::World>);

}  // namespace apram::api
