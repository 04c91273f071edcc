// SimBackend — the asynchronous-PRAM simulator as a register backend.
//
// Thin glue: Ctx is sim::Context (whose read/write/cas awaiters suspend the
// process for one scheduler-granted step each), Coro is sim::SimCoro
// (symmetric-transfer subcoroutines), and Mem scopes register creation in a
// World under a name prefix, so a structure's registers appear as
// "<prefix>.<name>" in traces and explorer output.
#pragma once

#include <string>
#include <utility>

#include "api/backend.hpp"
#include "sim/coro.hpp"
#include "sim/register.hpp"
#include "sim/world.hpp"

namespace apram::api {

struct SimBackend {
  using Ctx = sim::Context;
  template <class T>
  using Reg = sim::Register<T>;
  template <class T>
  using CasReg = sim::Register<T>;
  template <class T>
  using Coro = sim::SimCoro<T>;

  class Mem {
   public:
    Mem(sim::World& world, std::string prefix)
        : world_(&world), prefix_(std::move(prefix)) {}

    sim::World& world() const { return *world_; }
    int num_procs() const { return world_->num_procs(); }

    template <class T>
    Reg<T>& make(const std::string& name, T initial,
                 int writer = sim::kAnyWriter) {
      return world_->make_register<T>(prefix_ + "." + name,
                                      std::move(initial), writer);
    }

    // CAS registers are multi-writer by nature (any process may swing them).
    template <class T>
    CasReg<T>& make_cas(const std::string& name, T initial) {
      return world_->make_register<T>(prefix_ + "." + name,
                                      std::move(initial), sim::kAnyWriter);
    }

   private:
    sim::World* world_;
    std::string prefix_;
  };
};

static_assert(CasBackendFor<SimBackend, int>);

// Base of the <Name>Sim wrappers (World& + register-name prefix): derive
// from this first and from the backend-templated object second, so the Mem
// exists before the object allocates its registers in it.
class SimObject {
 protected:
  SimObject(sim::World& world, std::string prefix)
      : mem_(world, std::move(prefix)) {}

  SimBackend::Mem mem_;
};

}  // namespace apram::api
