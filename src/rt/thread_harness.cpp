#include "rt/thread_harness.hpp"

#include <memory>
#include <thread>

#include "obs/rt_probe.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram::rt {

namespace {

// Shared launch path of parallel_run / run_with_stall: spawns the workers,
// releases the start barrier once all are waiting on it, and returns the
// joinable threads. The barrier outlives this function via shared_ptr — the
// last worker through it drops the final reference; `on_done` may be a
// temporary at the call site, so each worker holds its own copy.
// `on_done(pid)` (may be empty) runs on the worker right after its body
// returns, before the kDone trace event.
struct StartBarrier {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
};

std::vector<std::thread> launch_workers(
    int num_threads, const std::function<void(int)>& body,
    obs::Tracer* tracer, const std::function<void(int)>& on_done) {
  APRAM_CHECK(num_threads >= 1);
  APRAM_CHECK_MSG(tracer == nullptr || tracer->num_rings() >= num_threads,
                  "tracer needs one ring per harness thread");
  auto barrier = std::make_shared<StartBarrier>();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int pid = 0; pid < num_threads; ++pid) {
    threads.emplace_back([barrier, &body, tracer, on_done, pid] {
      obs::set_thread_pid(pid);
      obs::pin_this_shard(pid);  // spreads harness threads over metric slots
      obs::set_thread_span_tracer(tracer, pid);
      barrier->ready.fetch_add(1, std::memory_order_relaxed);
      while (!barrier->go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (tracer != nullptr) tracer->lifecycle(pid, obs::EventKind::kSpawn);
      body(pid);
      if (on_done) on_done(pid);
      if (tracer != nullptr) tracer->lifecycle(pid, obs::EventKind::kDone);
      obs::set_thread_span_tracer(nullptr, -1);
      obs::set_thread_pid(-1);
    });
  }
  while (barrier->ready.load(std::memory_order_relaxed) < num_threads) {
    std::this_thread::yield();
  }
  barrier->go.store(true, std::memory_order_release);
  return threads;
}

}  // namespace

void parallel_run(int num_threads, const std::function<void(int)>& body,
                  obs::Tracer* tracer) {
  std::vector<std::thread> threads =
      launch_workers(num_threads, body, tracer, {});
  for (auto& t : threads) t.join();
}

void run_with_stall(int num_threads, const std::function<void(int)>& body,
                    fault::RtInjector& injector, int victim,
                    std::uint64_t stall_after,
                    const std::function<void()>& while_stalled,
                    obs::Tracer* tracer, fault::StallPoint point) {
  APRAM_CHECK(victim >= 0 && victim < num_threads);
  injector.arm_stall(victim, stall_after, point);

  std::atomic<bool> victim_done{false};
  std::vector<std::thread> threads = launch_workers(
      num_threads, body, tracer, [&victim_done, victim](int pid) {
        if (pid == victim) victim_done.store(true, std::memory_order_release);
      });

  // Wait until the victim is parked — or until it finished its whole body
  // below the stall threshold (completion wins, as with sim crashes). The
  // deadline turns a harness deadlock into a loud failure.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!injector.stall_engaged() &&
         !victim_done.load(std::memory_order_acquire)) {
    APRAM_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                    "stall victim neither parked nor finished");
    std::this_thread::yield();
  }

  if (while_stalled) while_stalled();

  injector.release_stall();
  for (auto& t : threads) t.join();
}

ThroughputRun::ThroughputRun(int num_threads) : n_(num_threads) {}

double ThroughputRun::run(std::chrono::milliseconds window,
                          const std::function<void(int)>& body) {
  ops_.assign(static_cast<std::size_t>(n_), 0);
  std::atomic<bool> stop{false};
  const auto t0 = std::chrono::steady_clock::now();

  std::thread timer([&] {
    std::this_thread::sleep_for(window);
    stop.store(true, std::memory_order_release);
  });
  parallel_run(n_, [&](int pid) {
    std::uint64_t count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      body(pid);
      ++count;
    }
    ops_[static_cast<std::size_t>(pid)] = count;
  });
  timer.join();

  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  std::uint64_t total = 0;
  for (auto c : ops_) total += c;
  return static_cast<double>(total) / elapsed;
}

double ThroughputRun::run_ops(std::uint64_t ops_per_thread,
                              const std::function<void(int)>& body) {
  ops_.assign(static_cast<std::size_t>(n_), ops_per_thread);
  const auto t0 = std::chrono::steady_clock::now();
  parallel_run(n_, [&](int pid) {
    for (std::uint64_t i = 0; i < ops_per_thread; ++i) body(pid);
  });
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  return static_cast<double>(ops_per_thread) * static_cast<double>(n_) /
         elapsed;
}

void ThroughputRun::export_metrics(obs::Registry& registry,
                                   const std::string& prefix) const {
  std::uint64_t total = 0;
  for (int pid = 0; pid < n_; ++pid) {
    const std::uint64_t ops = ops_[static_cast<std::size_t>(pid)];
    registry.gauge(prefix + ".ops.p" + std::to_string(pid))
        .set(static_cast<std::int64_t>(ops));
    total += ops;
  }
  registry.gauge(prefix + ".ops_total").set(static_cast<std::int64_t>(total));
}

}  // namespace apram::rt
