#include "sim/world.hpp"

#include "sim/scheduler.hpp"

namespace apram::sim {

World::World(int num_procs) : World(num_procs, Options{}) {}

World::World(int num_procs, const Options& options)
    : state_(static_cast<std::size_t>(num_procs), ProcState::kUnspawned),
      counts_(static_cast<std::size_t>(num_procs)),
      resume_(static_cast<std::size_t>(num_procs)),
      crash_at_(static_cast<std::size_t>(num_procs), kNoScheduledCrash),
      epoch_(static_cast<std::size_t>(num_procs), 0),
      bodies_(static_cast<std::size_t>(num_procs)),
      runnable_(num_procs) {
  APRAM_CHECK(num_procs > 0);
  apply_options(options);
}

void World::apply_options(const Options& options) {
  if (options.lazy_spawn) lazy_spawn_ = true;
  if (options.tracer != nullptr) {
    APRAM_CHECK_MSG(options.tracer->num_rings() >= num_procs(),
                    "tracer needs one ring per process");
    tracer_ = options.tracer;
    for (int pid = 0; pid < num_procs(); ++pid) tracer_->clear_spans(pid);
  }
  default_max_steps_ = options.max_steps;
  for (const CrashPoint& c : options.crashes) {
    schedule_crash(c.pid, c.at_access);
  }
}

World::~World() = default;

void World::spawn(int pid, ProcessFn fn) {
  spawn_impl(pid, std::move(fn), /*allow_crashed=*/false);
}

void World::revive(int pid, ProcessFn fn) {
  spawn_impl(pid, std::move(fn), /*allow_crashed=*/true);
}

void World::spawn_impl(int pid, ProcessFn fn, bool allow_crashed) {
  const ProcState s = state(pid);
  // A process may be re-spawned with a new program once its previous one
  // completed (multi-phase test harnesses use this); overlapping programs
  // are errors, and resurrecting crashed processes takes revive().
  if (!allow_crashed) {
    APRAM_CHECK_MSG(s != ProcState::kCrashed,
                    "crashed process cannot be re-spawned");
  }
  APRAM_CHECK_MSG(s == ProcState::kUnspawned || s == ProcState::kDone ||
                      s == ProcState::kCrashed,
                  "process spawned while running");
  Body& b = bodies_[static_cast<std::size_t>(pid)];
  b.task = ProcessTask{};  // old frame (if any) dies before its closure
  b.fn = std::move(fn);
  ++epoch_[static_cast<std::size_t>(pid)];
  state_[static_cast<std::size_t>(pid)] = ProcState::kPending;
  runnable_.add(pid);
  emit_lifecycle(pid, obs::EventKind::kSpawn);
  if (lazy_spawn_) {
    // No frame yet; the first grant materializes it. A crash threshold the
    // counts already meet still fires now, exactly as an eager spawn would.
    maybe_fire_scheduled_crash(pid);
    return;
  }
  materialize(pid);
}

void World::materialize(int pid) {
  APRAM_CHECK(state(pid) == ProcState::kPending);
  Body& b = bodies_[static_cast<std::size_t>(pid)];
  b.task = b.fn(Context{this, pid});
  APRAM_CHECK(b.task.valid());
  state_[static_cast<std::size_t>(pid)] = ProcState::kLive;
  resume_[static_cast<std::size_t>(pid)] = b.task.handle();
  // Prime the coroutine: run the local (free) prefix of the body up to its
  // first shared-memory access. Afterwards every scheduler grant performs
  // exactly one atomic access, so steps == reads + writes.
  resume_[static_cast<std::size_t>(pid)].resume();
  if (b.task.handle().done()) {
    finish(pid);
  } else {
    maybe_fire_scheduled_crash(pid);  // covers crash_at == current total
  }
}

void World::finish(int pid) {
  state_[static_cast<std::size_t>(pid)] = ProcState::kDone;
  runnable_.remove(pid);
  resume_[static_cast<std::size_t>(pid)] = nullptr;
  Body& b = bodies_[static_cast<std::size_t>(pid)];
  b.task.check();  // propagate any exception from the process body
  // Retire the frame and the closure now rather than at re-spawn: a million
  // finished processes must not hold a million frames.
  b.task = ProcessTask{};
  b.fn = nullptr;
  emit_lifecycle(pid, obs::EventKind::kDone);
}

void World::crash(int pid) {
  if (runnable(pid)) runnable_.remove(pid);
  state_[static_cast<std::size_t>(pid)] = ProcState::kCrashed;
  resume_[static_cast<std::size_t>(pid)] = nullptr;
  Body& b = bodies_[static_cast<std::size_t>(pid)];
  b.task = ProcessTask{};  // destroying a suspended frame is well-defined
  b.fn = nullptr;
  emit_lifecycle(pid, obs::EventKind::kCrash);
}

void World::schedule_crash(int pid, std::uint64_t at_access) {
  APRAM_CHECK_MSG(state(pid) != ProcState::kCrashed,
                  "schedule_crash on a crashed process");
  crash_at_[static_cast<std::size_t>(pid)] = at_access;
  maybe_fire_scheduled_crash(pid);
}

void World::maybe_fire_scheduled_crash(int pid) {
  // Completion wins: a process that finished its program below the
  // threshold keeps its result. Unspawned processes wait for spawn().
  const ProcState s = state_[static_cast<std::size_t>(pid)];
  if (s != ProcState::kLive && s != ProcState::kPending) return;
  std::uint64_t& at = crash_at_[static_cast<std::size_t>(pid)];
  if (counts_[static_cast<std::size_t>(pid)].total() >= at) {
    at = kNoScheduledCrash;  // fired: a revived incarnation runs free
    crash(pid);
  }
}

void World::count_access(int pid, int register_id, bool is_write) {
  StepCounts& c = counts_[static_cast<std::size_t>(pid)];
  ++(is_write ? c.writes : c.reads);
  if (tracer_ != nullptr) {
    const obs::EventKind kind =
        is_write ? obs::EventKind::kWrite : obs::EventKind::kRead;
    tracer_->event(pid, kind, register_id, /*arg=*/0, global_step_);
  }
  ++global_step_;
}

void World::count_cas(int pid, int register_id, bool success) {
  ++counts_[static_cast<std::size_t>(pid)].writes;
  if (tracer_ != nullptr) {
    tracer_->event(pid, obs::EventKind::kCas, register_id, success ? 1u : 0u,
                   global_step_);
  }
  ++global_step_;
}

bool World::step(int pid) {
  const ProcState s = state(pid);
  APRAM_CHECK_MSG(s != ProcState::kUnspawned, "stepping an unspawned process");
  APRAM_CHECK_MSG(s != ProcState::kDone, "stepping a finished process");
  APRAM_CHECK_MSG(s != ProcState::kCrashed, "stepping a crashed process");
  if (s == ProcState::kPending) {
    materialize(pid);
    // A zero-access program (or one whose crash threshold fires at the
    // materialization point) consumed this grant without an access.
    if (state_[static_cast<std::size_t>(pid)] != ProcState::kLive) {
      return false;
    }
  }
  const std::coroutine_handle<> h = resume_[static_cast<std::size_t>(pid)];
  APRAM_CHECK(h);
  h.resume();

  if (bodies_[static_cast<std::size_t>(pid)].task.handle().done()) {
    finish(pid);
    return false;
  }
  maybe_fire_scheduled_crash(pid);
  return state_[static_cast<std::size_t>(pid)] == ProcState::kLive;
}

RunResult World::run(Scheduler& sched, std::uint64_t max_steps) {
  if (max_steps == kUseOptions) max_steps = default_max_steps_;
  RunResult result;
  while (!all_done()) {
    APRAM_CHECK_MSG(result.steps_taken < max_steps,
                    "run() exceeded max_steps: non-terminating execution "
                    "(wait-freedom violation?)");
    const int pid = sched.pick(*this);
    if (pid < 0) break;  // scheduler declines to continue
    APRAM_CHECK_MSG(runnable(pid), "scheduler picked a non-runnable process");
    step(pid);
    ++result.steps_taken;
  }
  result.all_done = all_done();
  return result;
}

RunResult World::run_steps(Scheduler& sched, std::uint64_t steps) {
  RunResult result;
  while (result.steps_taken < steps && !all_done()) {
    const int pid = sched.pick(*this);
    if (pid < 0) break;
    APRAM_CHECK_MSG(runnable(pid), "scheduler picked a non-runnable process");
    step(pid);
    ++result.steps_taken;
  }
  result.all_done = all_done();
  return result;
}

RunResult World::run_solo(int pid, std::uint64_t max_steps) {
  if (max_steps == kUseOptions) max_steps = default_max_steps_;
  RunResult result;
  while (runnable(pid)) {
    APRAM_CHECK_MSG(result.steps_taken < max_steps,
                    "run_solo() exceeded max_steps: process does not "
                    "terminate in isolation");
    step(pid);
    ++result.steps_taken;
  }
  result.all_done = all_done();
  return result;
}

StepCounts World::total_counts() const {
  StepCounts total;
  for (const StepCounts& c : counts_) {
    total.reads += c.reads;
    total.writes += c.writes;
  }
  return total;
}

}  // namespace apram::sim
