// World — the asynchronous PRAM machine.
//
// A World owns a set of shared registers and a set of processes (coroutines).
// Execution proceeds in atomic steps: a Scheduler picks a runnable process,
// the World resumes it, and the process performs exactly one shared-memory
// access (read or write) before suspending again. This is precisely the
// model of Section 3 of Aspnes & Herlihy: asynchronous processes whose only
// interaction is atomic reads and writes of shared registers, interleaved in
// an arbitrary (here: scheduler-chosen) order.
//
// The World counts reads and writes per process — the step-complexity
// measure used by all the paper's theorems — and is the one place a
// simulated process is crashed (crash(), schedule_crash()) or logged: an
// attached obs::Tracer gets one event per access and per lifecycle change.
//
// Per-process state is stored structure-of-arrays (one status byte, one
// counts struct, one resume handle per pid in parallel vectors) rather than
// as an array of process objects: Worlds sized for the north star's
// 10⁵–10⁶ processes spend most steps touching one byte and one counter,
// and the hot arrays stay cache-dense. Coroutine frames — the only
// per-process allocation that is not O(1) — are created eagerly at spawn()
// by default (the documented semantics: spawn runs the body's local prefix
// up to its first access), or lazily at the first scheduler grant when
// Options::lazy_spawn is set, so a spawned-but-never-scheduled process
// costs only its stored closure. Frames are destroyed as soon as a process
// finishes or crashes, bounding memory across long respawn churn.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/coro.hpp"
#include "sim/register.hpp"
#include "sim/runnable_set.hpp"
#include "util/assert.hpp"

namespace apram::sim {

class Scheduler;

// Per-process step counters — the canonical obs reads/writes/total triple
// (kept under the historical name; see obs::AccessCounts).
using StepCounts = obs::AccessCounts;

// Outcome of World::run.
struct RunResult {
  bool all_done = false;          // every non-crashed process completed
  std::uint64_t steps_taken = 0;  // scheduler grants performed during run()
};

class World {
 public:
  // Default grant budget of run()/run_solo(); the kUseOptions sentinel makes
  // those calls fall back to Options::max_steps.
  static constexpr std::uint64_t kDefaultMaxSteps = 100'000'000;
  static constexpr std::uint64_t kUseOptions = 0;

  // Construction-time configuration. One struct instead of a pile of
  // setters: everything here is fixed before the first step, which is also
  // what determinism wants (a tracer attached mid-run splits an execution
  // into differently-instrumented halves).
  struct CrashPoint {
    int pid = 0;
    std::uint64_t at_access = 0;  // see schedule_crash
  };
  struct Options {
    obs::Tracer* tracer = nullptr;  // per-step obs events (ring per pid)
    // Default grant budget for run()/run_solo() calls that do not pass an
    // explicit budget. Wait-free code exceeding it is a genuine bug.
    std::uint64_t max_steps = kDefaultMaxSteps;
    std::vector<CrashPoint> crashes{};  // victim-keyed crash schedule
    // Defer coroutine-frame creation to the first scheduler grant. Off by
    // default: eager spawn is the documented semantics (a zero-access
    // program is done() immediately after spawn()). Scenario drivers turn
    // this on so 10⁶ spawned-but-not-yet-scheduled processes cost only
    // their closures.
    bool lazy_spawn = false;
  };

  explicit World(int num_procs);
  World(int num_procs, const Options& options);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int num_procs() const { return static_cast<int>(state_.size()); }

  // --- Registers -----------------------------------------------------------

  // Creates a register owned by this World; the reference stays valid for the
  // World's lifetime. `writer` is the pid allowed to write it (kAnyWriter for
  // multi-writer registers).
  template <class T>
  Register<T>& make_register(std::string name, T initial,
                             int writer = kAnyWriter) {
    auto reg = std::make_unique<Register<T>>(
        std::move(name), static_cast<int>(registers_.size()), writer,
        std::move(initial));
    auto& ref = *reg;
    registers_.push_back(std::move(reg));
    return ref;
  }

  const RegisterBase& register_at(int id) const {
    APRAM_CHECK(id >= 0 && id < static_cast<int>(registers_.size()));
    return *registers_[static_cast<std::size_t>(id)];
  }
  int num_registers() const { return static_cast<int>(registers_.size()); }

  // --- Processes -----------------------------------------------------------

  using ProcessFn = std::function<ProcessTask(Context)>;

  // Installs the body of process `pid`. The callable is kept alive until the
  // process is re-spawned (coroutine frames reference the closure's
  // captures). A process whose program completed may be spawned again with a
  // fresh program — step counts accumulate across programs.
  void spawn(int pid, ProcessFn fn);

  // spawn() that additionally accepts a crashed pid: the recovered process
  // is a NEW incarnation (spawn_epoch advances) whose step counts continue
  // to accumulate. This is the scenario suite's rolling crash/recovery
  // churn; plain spawn() keeps the paper's crashes-are-permanent semantics.
  void revive(int pid, ProcessFn fn);

  bool spawned(int pid) const { return state(pid) != ProcState::kUnspawned; }
  bool done(int pid) const { return state(pid) == ProcState::kDone; }
  bool crashed(int pid) const { return state(pid) == ProcState::kCrashed; }
  bool runnable(int pid) const {
    const ProcState s = state(pid);
    return s == ProcState::kLive || s == ProcState::kPending;
  }
  bool all_done() const { return runnable_.empty(); }
  int num_runnable() const { return runnable_.size(); }

  // Incarnation counter: 0 before the first spawn, +1 per spawn()/revive().
  // Schedulers that cache a pid across picks compare epochs to avoid
  // conflating two incarnations of the same pid (RandomScheduler
  // stickiness).
  std::uint32_t spawn_epoch(int pid) const {
    APRAM_CHECK(pid >= 0 && pid < num_procs());
    return epoch_[static_cast<std::size_t>(pid)];
  }

  // --- Runnable-set queries (O(1); the scheduler hot path) -----------------

  // Smallest runnable pid ≥ `pid`, or -1 if none (no wrap-around) — the
  // successor order RoundRobinScheduler's fairness is defined by.
  int next_runnable_at_or_after(int pid) const {
    return runnable_.next_at_or_after(pid);
  }

  // The i-th runnable pid, 0 ≤ i < num_runnable(), in an unspecified but
  // deterministic order — uniform sampling over i is uniform over runnable
  // pids (RandomScheduler).
  int runnable_at(int i) const { return runnable_.at(i); }

  // Permanently halts a process (models a crash failure). Wait-free code run
  // by the other processes must still complete.
  void crash(int pid);

  // Schedules a crash keyed to the process's OWN accesses: `pid` is crashed
  // as soon as its cumulative access count (reads + writes, across respawns)
  // reaches `at_access` — i.e. before its (at_access+1)-th access — no
  // matter which scheduler drives the run or whether steps come from run()
  // or step(). Fires immediately if the threshold is already met, and at
  // spawn() for a victim not yet spawned. Completion wins: a process whose
  // program finishes below the threshold is never crashed. One threshold
  // per pid; a later call replaces it. Every simulated crash plan (tests,
  // fault campaigns, Options::crashes) goes through here.
  void schedule_crash(int pid, std::uint64_t at_access);

  // --- Execution -----------------------------------------------------------

  // Grants one atomic step to `pid`. Returns true if the process is still
  // runnable afterwards. Under lazy_spawn the first grant to a pending
  // process materializes its frame, runs the free local prefix, and then
  // performs the first access — still one access per grant, except for a
  // zero-access program whose materializing grant performs none.
  bool step(int pid);

  // Repeatedly asks `sched` for the next process until all processes finish,
  // the scheduler declines (pick() < 0), or `max_steps` grants have been
  // made. Exceeding max_steps with unfinished processes aborts: for the
  // wait-free algorithms in this library that is a genuine bug, so tests set
  // max_steps to the theoretical bound plus slack. Passing kUseOptions (0)
  // uses the budget from Options::max_steps.
  RunResult run(Scheduler& sched, std::uint64_t max_steps = kUseOptions);

  // Takes at most `steps` grants and then returns normally — for partial
  // executions (schedule recording, bounded exploration). Unlike run(),
  // reaching the step budget is not an error.
  RunResult run_steps(Scheduler& sched, std::uint64_t steps);

  // Convenience: run only `pid` until it completes (the "solo execution"
  // used to define preferences in Lemma 6).
  RunResult run_solo(int pid, std::uint64_t max_steps = kUseOptions);

  // --- Accounting ----------------------------------------------------------

  // The only record of simulated accesses. A window's cost is the
  // difference of two readings: `counts(pid) - before`.
  const StepCounts& counts(int pid) const {
    APRAM_CHECK(pid >= 0 && pid < num_procs());
    return counts_[static_cast<std::size_t>(pid)];
  }
  StepCounts total_counts() const;
  std::uint64_t global_step() const { return global_step_; }

  // --- Observability (apram::obs) ------------------------------------------

  // Applies Options to an already-built World. For infrastructure that
  // receives a World it did not construct (the fault certifier, replay
  // drivers); everything else should pass Options to the constructor.
  // Only non-default fields take effect: `lazy_spawn` enables (never
  // disables) lazy frames, `tracer` attaches when non-null, and every entry
  // of `crashes` is scheduled. `max_steps` replaces the run budget.
  //
  // A tracer gets one obs event per atomic step (kRead/kWrite/kCas,
  // object = register id, when = the current global step) plus
  // kSpawn/kDone/kCrash lifecycle events, and needs a ring per process.
  void apply_options(const Options& options);

  obs::Tracer* tracer() const { return tracer_; }

 private:
  friend class Context;
  template <class T>
  friend struct ReadAwaiter;
  template <class T>
  friend struct WriteAwaiter;
  template <class T>
  friend struct CasAwaiter;

  // Process lifecycle. kPending exists only under lazy_spawn: the body is
  // installed and the pid is runnable, but no coroutine frame exists yet.
  enum class ProcState : std::uint8_t {
    kUnspawned = 0,
    kPending,   // spawned, frame not yet materialized (lazy_spawn)
    kLive,      // frame exists, suspended at an access point
    kDone,      // program completed; frame destroyed
    kCrashed,   // halted; frame destroyed
  };

  // Cold per-process storage: the installed body and its coroutine task.
  // fn is declared before task so the frame (task) is destroyed before the
  // closure its captures live in.
  struct Body {
    ProcessFn fn;
    ProcessTask task;
  };

  void set_tracer_impl(obs::Tracer* tracer);

  static constexpr std::uint64_t kNoScheduledCrash =
      ~static_cast<std::uint64_t>(0);

  ProcState state(int pid) const {
    APRAM_CHECK(pid >= 0 && pid < num_procs());
    return state_[static_cast<std::size_t>(pid)];
  }

  void spawn_impl(int pid, ProcessFn fn, bool allow_crashed);
  // Creates the frame of a kPending process and runs its free local prefix
  // up to the first access (or to completion / a scheduled crash).
  void materialize(int pid);
  // kLive → kDone: retire the frame, propagate body exceptions, emit kDone.
  void finish(int pid);

  // Called from access awaiters.
  void note_suspend(int pid, std::coroutine_handle<> h) {
    resume_[static_cast<std::size_t>(pid)] = h;
  }
  void count_access(int pid, int register_id, bool is_write);
  // A CAS is one atomic step, counted as one write (see obs::AccessCounts);
  // the tracer records it as kCas with arg = success.
  void count_cas(int pid, int register_id, bool success);
  void check_write_allowed(int pid, const RegisterBase& reg) {
    APRAM_CHECK_MSG(
        reg.writer() == kAnyWriter || reg.writer() == pid,
        "single-writer register written by a foreign process");
  }

  void emit_lifecycle(int pid, obs::EventKind kind);
  void maybe_fire_scheduled_crash(int pid);
  std::uint64_t current_op(int pid) const {
    return spans_.empty() ? 0 : spans_[static_cast<std::size_t>(pid)].current();
  }

  // Operation-span markers, called through Context::op_begin etc. Local
  // bookkeeping at the current global step — zero model steps. No-ops
  // without a tracer, so the per-proc span stacks stay balanced whether or
  // not instrumentation is attached.
  void op_begin(int pid, obs::OpKind kind);
  void op_end(int pid, obs::OpKind kind);
  void op_phase(int pid, obs::Phase phase, int index);
  void op_help(int pid, int object);

  // Hot per-process state, structure-of-arrays (indexed by pid).
  std::vector<ProcState> state_;
  std::vector<StepCounts> counts_;
  std::vector<std::coroutine_handle<>> resume_;
  std::vector<std::uint64_t> crash_at_;   // see schedule_crash
  std::vector<std::uint32_t> epoch_;      // see spawn_epoch
  std::vector<Body> bodies_;              // cold: closures + frames
  std::vector<obs::SpanStack> spans_;     // sized only when a tracer attaches
  RunnableSet runnable_;                  // pids with state kPending/kLive

  std::vector<std::unique_ptr<RegisterBase>> registers_;
  std::uint64_t global_step_ = 0;
  std::uint64_t default_max_steps_ = kDefaultMaxSteps;
  bool lazy_spawn_ = false;

  obs::Tracer* tracer_ = nullptr;  // null when not attached
};

// ---------------------------------------------------------------------------
// Access awaiters (implementation of Context::read / Context::write)
// ---------------------------------------------------------------------------
//
// The access happens in await_resume, i.e. at the instant the scheduler
// grants the step — not when the process decides to make it. Everything the
// process computes between two accesses is local and free, matching the
// PRAM cost model where only shared-memory operations are counted.

template <class T>
struct ReadAwaiter {
  World* world;
  int pid;
  const Register<T>* reg;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    world->note_suspend(pid, h);
  }
  T await_resume() {
    world->count_access(pid, reg->id(), /*is_write=*/false);
    return reg->peek();
  }
};

template <class T>
struct WriteAwaiter {
  World* world;
  int pid;
  Register<T>* reg;
  T value;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    world->note_suspend(pid, h);
  }
  void await_resume() {
    world->check_write_allowed(pid, *reg);
    world->count_access(pid, reg->id(), /*is_write=*/true);
    reg->poke(std::move(value));
  }
};

// Compare-and-swap: at the granted step, atomically compare the register's
// value to `expected` (T's operator==) and install `desired` on a match.
// Returns whether the swap happened.
template <class T>
struct CasAwaiter {
  World* world;
  int pid;
  Register<T>* reg;
  T expected;
  T desired;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    world->note_suspend(pid, h);
  }
  bool await_resume() {
    world->check_write_allowed(pid, *reg);
    const bool ok = reg->peek() == expected;
    world->count_cas(pid, reg->id(), ok);
    if (ok) reg->poke(std::move(desired));
    return ok;
  }
};

template <class T>
auto Context::read(const Register<T>& reg) const {
  APRAM_CHECK(world_ != nullptr);
  return ReadAwaiter<T>{world_, pid_, &reg};
}

template <class T>
auto Context::write(Register<T>& reg, T value) const {
  APRAM_CHECK(world_ != nullptr);
  return WriteAwaiter<T>{world_, pid_, &reg, std::move(value)};
}

template <class T>
auto Context::cas(Register<T>& reg, T expected, T desired) const {
  APRAM_CHECK(world_ != nullptr);
  return CasAwaiter<T>{world_, pid_, &reg, std::move(expected),
                       std::move(desired)};
}

inline void Context::op_begin(obs::OpKind kind) const {
  APRAM_CHECK(world_ != nullptr);
  world_->op_begin(pid_, kind);
}

inline void Context::op_end(obs::OpKind kind) const {
  APRAM_CHECK(world_ != nullptr);
  world_->op_end(pid_, kind);
}

inline void Context::op_phase(obs::Phase phase, int index) const {
  APRAM_CHECK(world_ != nullptr);
  world_->op_phase(pid_, phase, index);
}

inline void Context::op_help(int object) const {
  APRAM_CHECK(world_ != nullptr);
  world_->op_help(pid_, object);
}

}  // namespace apram::sim
