// Sensor fusion with wait-free approximate agreement.
//
// Scenario (the paper's §4 object in a systems costume): n redundant sensors
// each take a noisy reading of the same physical quantity. Before acting,
// the replicas must settle on readings within a tolerance ε of each other —
// without locks, and even if some replicas stall or crash mid-protocol.
//
// We run the Figure 2 algorithm in the concurrent-participation regime
// (every sensor posts its reading, then everyone converges), under a bursty
// random scheduler, with one replica crashing partway through. The
// survivors still settle within ε, and the settled band lies inside the
// span of the raw readings.
#include <cstdio>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

using namespace apram;

int main() {
  const int sensors = 6;
  const double true_value = 20.0;  // degrees
  const double tolerance = 0.05;   // settle within 0.05 degrees

  Rng rng(424242);
  std::vector<double> readings;
  for (int i = 0; i < sensors; ++i) {
    readings.push_back(true_value + rng.uniform(-1.5, 1.5));
  }

  sim::World world(sensors);
  ApproxAgreementSim agreement(world, sensors, tolerance);

  // Phase 1: every sensor posts its raw reading.
  for (int pid = 0; pid < sensors; ++pid) {
    world.spawn(pid, [&, pid](sim::Context ctx) -> sim::ProcessTask {
      co_await agreement.input(ctx, readings[static_cast<std::size_t>(pid)]);
    });
  }
  sim::RoundRobinScheduler rr;
  world.run(rr);

  // Phase 2: everyone converges; sensor 3 dies mid-protocol.
  std::vector<double> settled(sensors, -1.0);
  std::vector<bool> finished(sensors, false);
  for (int pid = 0; pid < sensors; ++pid) {
    world.spawn(pid, [&, pid](sim::Context ctx) -> sim::ProcessTask {
      settled[static_cast<std::size_t>(pid)] = co_await agreement.output(ctx);
      finished[static_cast<std::size_t>(pid)] = true;
    });
  }
  // The trigger counts sensor 3's OWN accesses: 7 accesses into its phase-2
  // output call (on top of its phase-1 work), it dies.
  world.schedule_crash(/*pid=*/3, world.counts(3).total() + 7);
  sim::RandomScheduler random_sched(/*seed=*/99, /*stickiness=*/0.8);
  world.run(random_sched);

  std::printf("raw readings        : ");
  for (double r : readings) std::printf("%7.3f ", r);
  std::printf("\nsettled (wait-free) : ");
  for (int pid = 0; pid < sensors; ++pid) {
    if (finished[static_cast<std::size_t>(pid)]) {
      std::printf("%7.3f ", settled[static_cast<std::size_t>(pid)]);
    } else {
      std::printf("crashed ");
    }
  }
  std::printf("\n");

  double lo = 1e9, hi = -1e9;
  for (int pid = 0; pid < sensors; ++pid) {
    if (!finished[static_cast<std::size_t>(pid)]) continue;
    lo = std::min(lo, settled[static_cast<std::size_t>(pid)]);
    hi = std::max(hi, settled[static_cast<std::size_t>(pid)]);
  }
  std::printf("settled band width  : %.4f (tolerance %.4f) — %s\n", hi - lo,
              tolerance, (hi - lo) < tolerance ? "within tolerance" : "FAIL");
  std::printf("note: sensor 3 crashed mid-protocol; the survivors settled "
              "anyway (wait-freedom).\n");
  return (hi - lo) < tolerance ? 0 : 1;
}
