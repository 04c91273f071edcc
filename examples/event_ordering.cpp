// Distributed event ordering with a wait-free Lamport clock.
//
// Scenario (§5.1: "logical clocks [33]"): worker replicas log events and
// exchange messages. Each replica stamps its events from a shared wait-free
// logical clock built on a max-register via the universal construction;
// message receipts advance the receiver's clock past the sender's stamp, so
// causally-ordered events get increasing timestamps, while (stamp, pid)
// pairs give a total order for the combined log.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "objects/logical_clock.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

using namespace apram;

struct LoggedEvent {
  LamportClockSim::Stamp stamp;
  int pid;
  std::string what;
};

int main() {
  const int workers = 3;
  sim::World world(workers);
  LamportClockSim clock(world, workers);

  std::vector<LoggedEvent> log;
  // Mailboxes: mailbox[i] carries a (stamped) message for worker i.
  std::vector<std::int64_t> mailbox(workers, -1);

  // Worker 0: does local work, then "sends" to worker 1 (out-of-band data
  // channel; the clock is the shared object under test).
  world.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
    auto s1 = co_await clock.stamp(ctx);
    log.push_back({s1, 0, "w0: prepare batch"});
    auto s2 = co_await clock.stamp(ctx);
    log.push_back({s2, 0, "w0: send batch -> w1"});
    mailbox[1] = s2.time;
  });

  // Worker 1: works, receives w0's message, then emits a causally-later
  // event.
  world.spawn(1, [&](sim::Context ctx) -> sim::ProcessTask {
    auto s1 = co_await clock.stamp(ctx);
    log.push_back({s1, 1, "w1: local housekeeping"});
    // Busy-wait-free "poll": in the simulator, just check the mailbox each
    // time we are scheduled; a real system would use its transport.
    while (mailbox[1] < 0) {
      co_await clock.now(ctx);  // a step, so the scheduler can interleave
    }
    const auto t = co_await clock.observe(ctx, mailbox[1]);
    log.push_back({{t, 1}, 1, "w1: received batch (causal edge from w0)"});
    auto s2 = co_await clock.stamp(ctx);
    log.push_back({s2, 1, "w1: process batch"});
  });

  // Worker 2: independent events, concurrent with everything.
  world.spawn(2, [&](sim::Context ctx) -> sim::ProcessTask {
    for (int i = 0; i < 3; ++i) {
      auto s = co_await clock.stamp(ctx);
      log.push_back({s, 2, "w2: heartbeat " + std::to_string(i)});
    }
  });

  sim::RandomScheduler sched(/*seed=*/5150);
  world.run(sched);

  std::sort(log.begin(), log.end(),
            [](const LoggedEvent& a, const LoggedEvent& b) {
              return a.stamp < b.stamp;
            });

  std::printf("combined log in (lamport, pid) order:\n");
  for (const auto& e : log) {
    std::printf("  t=%3lld.%d  %s\n", static_cast<long long>(e.stamp.time),
                e.stamp.pid, e.what.c_str());
  }

  // Check the causal edge: "send" strictly precedes "received".
  std::int64_t sent = -1, received = -1;
  for (const auto& e : log) {
    if (e.what.find("send batch") != std::string::npos) sent = e.stamp.time;
    if (e.what.find("received batch") != std::string::npos) {
      received = e.stamp.time;
    }
  }
  std::printf("causality: send@%lld < receive@%lld — %s\n",
              static_cast<long long>(sent), static_cast<long long>(received),
              sent < received ? "ok" : "VIOLATED");
  return sent < received ? 0 : 1;
}
