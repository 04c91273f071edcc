// Quickstart: the three layers of libapram in ~100 lines.
//
//   1. Simulate an asynchronous PRAM world and take an atomic snapshot.
//   2. Build a wait-free shared counter with the universal construction.
//   3. Run the same snapshot algorithm on real threads.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>

#include "core/apram.hpp"

using namespace apram;

int main() {
  // --- 1. Atomic snapshot in the simulator --------------------------------
  //
  // Three simulated processes share a snapshot object. Each installs a value
  // and takes an instantaneous view of all slots; a seeded random scheduler
  // interleaves them at single-register-access granularity.
  {
    sim::World world(3);
    AtomicSnapshotSim<int> snapshot(world, 3);

    std::vector<SnapshotView<int>> views(3);
    for (int pid = 0; pid < 3; ++pid) {
      world.spawn(pid, [&, pid](sim::Context ctx) -> sim::ProcessTask {
        co_await snapshot.update(ctx, (pid + 1) * 100);
        views[static_cast<std::size_t>(pid)] = co_await snapshot.scan(ctx);
      });
    }
    sim::RandomScheduler sched(/*seed=*/2024);
    world.run(sched);

    std::printf("1) simulated snapshot views (one row per process):\n");
    for (int pid = 0; pid < 3; ++pid) {
      std::printf("   P%d saw: ", pid);
      for (const auto& slot : views[static_cast<std::size_t>(pid)]) {
        if (slot.has_value()) {
          std::printf("%4d ", *slot);
        } else {
          std::printf("   - ");
        }
      }
      std::printf("\n");
    }
    std::printf("   (%llu shared-memory steps total; every scan cost "
                "exactly n^2-1 = 8 reads)\n\n",
                static_cast<unsigned long long>(world.total_counts().total()));
  }

  // --- 2. Wait-free counter via the universal construction ----------------
  //
  // CounterSpec satisfies Property 1 (inc/dec commute, reset overwrites
  // everything, everything overwrites read), so Figure 4 turns its
  // sequential spec into a wait-free linearizable object.
  {
    sim::World world(2);
    CounterSim counter(world, 2);
    std::int64_t observed = 0;

    world.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await counter.inc(ctx, 5);
      co_await counter.inc(ctx, 5);
    });
    world.spawn(1, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await counter.dec(ctx, 3);
      observed = co_await counter.read(ctx);
    });
    // Run P0 to completion, then P1: the read is the last operation, so
    // linearizability forces it to see 5 + 5 - 3 = 7. (Under a concurrent
    // schedule the read may legally linearize earlier and see less — the
    // tests in tests/lincheck_test.cpp check exactly that.)
    world.run_solo(0);
    world.run_solo(1);
    std::printf("2) universal wait-free counter: 5 + 5 - 3, read -> %lld\n\n",
                static_cast<long long>(observed));
  }

  // --- 3. The same snapshot on real threads -------------------------------
  {
    const int threads = 4;
    rt::AtomicSnapshotRT<int> snapshot(threads);
    rt::parallel_run(threads, [&](int pid) {
      snapshot.update(pid, pid * 11);
      (void)snapshot.scan(pid);
    });
    const auto final_view = snapshot.scan(0);
    std::printf("3) real-thread snapshot final view: ");
    for (const auto& slot : final_view) {
      std::printf("%d ", slot.value_or(-1));
    }
    std::printf("\n");
  }
  return 0;
}
