// RtBackend — real threads as a register backend.
//
// The inverse of SimBackend: awaiters never suspend. Each Ctx accessor
// performs the register operation inline (the hardware, not a Scheduler,
// interleaves processes) and hands the result to an always-ready awaiter, so
// an algorithm coroutine instantiated with this backend runs synchronously
// to completion — EagerCoro (see api/eager_coro.hpp) is built around exactly
// that guarantee, and rt convenience wrappers drain it with .get().
//
// Reg<T> and CasReg<T> are both rt::Register<T>, as SimBackend's are both
// sim::Register<T>: make() builds it for one writer, make_cas() for
// num_procs.
//
// Mem owns the registers (one type-erased holder each; a register's object
// id is its creation order) and is the single attach point for
// observability and fault injection: attach_obs() instruments every
// register created SO FAR with aggregate counters "rt.<name>.reads" /
// ".writes" / ".cas" plus optional trace events, where <name> names the
// metrics, not a register. A CAS is counted separately in ".cas" (one
// atomic step — add it to ".writes" when comparing against sim StepCounts,
// where a CAS counts as one write). Attach after construction, before
// concurrent use.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/eager_coro.hpp"
#include "fault/rt_inject.hpp"
#include "obs/metrics.hpp"
#include "obs/rt_probe.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rt/register.hpp"
#include "util/assert.hpp"

namespace apram::api {

namespace detail {

template <class T>
struct ReadyAwaiter {
  T value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return std::move(value); }
};

struct ReadyVoidAwaiter {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

}  // namespace detail

struct RtBackend {
  template <class T>
  using Reg = rt::Register<T>;
  template <class T>
  using CasReg = rt::Register<T>;
  template <class T>
  using Coro = EagerCoro<T>;

  class Ctx {
   public:
    explicit Ctx(int pid) : pid_(pid) {}

    int pid() const { return pid_; }

    // T is deduced from the register alone; the values convert to it.
    template <class T>
    auto read(const rt::Register<T>& reg) const {
      return detail::ReadyAwaiter<T>{reg.read()};
    }

    // Single-writer discipline is by convention here (the sim backend
    // enforces it and aborts; running the same algorithm there first is the
    // cheap way to check).
    template <class T>
    auto write(rt::Register<T>& reg, std::type_identity_t<T> value) const {
      reg.write(std::move(value));
      return detail::ReadyVoidAwaiter{};
    }

    // `expected` by reference: the CAS completes inside this call, so the
    // reference never outlives it (no copy of a large cell per attempt).
    template <class T>
    auto cas(rt::Register<T>& reg, const std::type_identity_t<T>& expected,
             std::type_identity_t<T> desired) const {
      const bool ok =
          reg.compare_exchange(pid_, expected, std::move(desired));
      return detail::ReadyAwaiter<bool>{ok};
    }

    // Operation-span markers (obs/span.hpp), forwarded to the calling
    // thread's ambient span state (installed by rt::parallel_run). Inline
    // no-ops — one TLS load and a branch — without an ambient tracer. Same
    // explicit begin/end contract as sim::Context.
    void op_begin(obs::OpKind kind) const { obs::rt_op_begin(kind); }
    void op_end(obs::OpKind kind) const { obs::rt_op_end(kind); }
    void op_phase(obs::Phase phase, int index = -1) const {
      obs::rt_op_phase(phase, index);
    }
    void op_help(int object) const { obs::rt_op_help(object); }

   private:
    int pid_;
  };

  class Mem {
   public:
    explicit Mem(int num_procs) : num_procs_(num_procs) {
      APRAM_CHECK(num_procs >= 1);
    }

    int num_procs() const { return num_procs_; }

    template <class T>
    Reg<T>& make(T initial, int /*writer*/ = -1) {
      auto h = std::make_unique<Holder<Reg<T>>>(std::move(initial));
      Reg<T>& reg = h->reg;
      holders_.push_back(std::move(h));
      return reg;
    }

    template <class T>
    CasReg<T>& make_cas(T initial) {
      auto h =
          std::make_unique<Holder<CasReg<T>>>(num_procs_, std::move(initial));
      CasReg<T>& reg = h->reg;
      holders_.push_back(std::move(h));
      return reg;
    }

    // Instruments every register created so far: aggregate counters
    // "rt.<name>.reads" / ".writes" / ".cas" / ".cas_fail" (lost CASes) in
    // `registry`, plus per-access trace events (object id = creation order)
    // when `tracer` is non-null. Attach before concurrent use;
    // registry/tracer must outlive this Mem.
    void attach_obs(obs::Registry& registry, const std::string& name,
                    obs::Tracer* tracer = nullptr) {
      obs::Counter* reads = &registry.counter("rt." + name + ".reads");
      obs::Counter* writes = &registry.counter("rt." + name + ".writes");
      obs::Counter* cas = &registry.counter("rt." + name + ".cas");
      obs::Counter* cas_fail = &registry.counter("rt." + name + ".cas_fail");
      for (std::size_t i = 0; i < holders_.size(); ++i) {
        HolderBase& h = *holders_[i];
        h.probe.reads = reads;
        h.probe.writes = writes;
        h.probe.cas_ops = cas;
        h.probe.cas_failures = cas_fail;
        h.probe.tracer = tracer;
        h.probe.object = static_cast<std::int32_t>(i);
        h.attach_probe(&h.probe);
      }
    }

    // Attaches a fault injector to every register created so far (see
    // fault/rt_inject.hpp); nullptr detaches. Attach before concurrent use.
    void attach_injector(fault::RtInjector* injector) {
      for (auto& h : holders_) h->attach_injector(injector);
    }

    // Reclamation accounting summed over every arena register in this Mem
    // (exact at quiescence; inline registers contribute zeros).
    // live_versions() is bounded by concurrent holders, not by write count —
    // a gauge that drifts with the write count is a reclamation leak.
    rt::reclaim::ReclaimStats reclaim_stats() const {
      rt::reclaim::ReclaimStats total;
      for (const auto& h : holders_) total += h->reclaim_stats();
      return total;
    }

    // Publishes the reclamation totals as gauges "rt.<name>.reclaim.
    // {live_versions,retired,recycled,acquire_contention}" into `registry`.
    // Call at quiescence (after joins); gauges are last-writer-wins.
    void export_reclaim_gauges(obs::Registry& registry,
                               const std::string& name) const {
      const rt::reclaim::ReclaimStats s = reclaim_stats();
      const std::string prefix = "rt." + name + ".reclaim.";
      registry.gauge(prefix + "live_versions")
          .set(static_cast<std::int64_t>(s.live_versions()));
      registry.gauge(prefix + "retired")
          .set(static_cast<std::int64_t>(s.retired));
      registry.gauge(prefix + "recycled")
          .set(static_cast<std::int64_t>(s.recycled));
      registry.gauge(prefix + "acquire_contention")
          .set(static_cast<std::int64_t>(s.acquire_contention));
    }

   private:
    struct HolderBase {
      virtual ~HolderBase() = default;
      virtual void attach_probe(const obs::RtProbe* p) = 0;
      virtual void attach_injector(fault::RtInjector* inj) = 0;
      virtual rt::reclaim::ReclaimStats reclaim_stats() const = 0;

      obs::RtProbe probe;  // configured by attach_obs
    };

    // The vtable pointer and the probe share the first cache line; the
    // register owns the second.
    template <class R>
    struct Holder final : HolderBase {
      template <class... Args>
      explicit Holder(Args&&... args) : reg(std::forward<Args>(args)...) {
        static_assert(sizeof(R) != 64 || sizeof(Holder) == 128,
                      "a one-line register's holder must stay two lines");
      }
      void attach_probe(const obs::RtProbe* p) override {
        reg.attach_probe(p);
      }
      void attach_injector(fault::RtInjector* inj) override {
        reg.attach_injector(inj);
      }
      rt::reclaim::ReclaimStats reclaim_stats() const override {
        return reg.reclaim_stats();
      }

      R reg;
    };

    int num_procs_;
    std::vector<std::unique_ptr<HolderBase>> holders_;
  };
};

static_assert(CasBackendFor<RtBackend, int>);

// Base of the <Name>RT wrappers: owns the Mem their backend-templated object
// allocates in, and exposes its attach points. A wrapper adds the int-pid
// entry points (thread p calls only the p-indexed ones); new code should
// hold an RtBackend::Mem and the templated classes directly.
class RtObject {
 public:
  explicit RtObject(int num_procs) : mem_(num_procs) {}

  int num_procs() const { return mem_.num_procs(); }

  // See the Mem members of the same names. Attach before concurrent use.
  void attach_obs(obs::Registry& registry, const std::string& name,
                  obs::Tracer* tracer = nullptr) {
    mem_.attach_obs(registry, name, tracer);
  }
  void attach_injector(fault::RtInjector* injector) {
    mem_.attach_injector(injector);
  }
  rt::reclaim::ReclaimStats reclaim_stats() const {
    return mem_.reclaim_stats();
  }
  void export_reclaim_gauges(obs::Registry& registry,
                             const std::string& name) const {
    mem_.export_reclaim_gauges(registry, name);
  }

 protected:
  RtBackend::Mem mem_;
};

}  // namespace apram::api
