// Leader election with randomized wait-free consensus.
//
// Scenario: replicas of a service wake up concurrently and must agree on a
// single leader to own a recovery task — using nothing but shared read/write
// registers. Deterministic consensus is impossible in this model (the
// paper's §1 impossibility context), but the randomized commit-adopt +
// conciliator construction decides in a couple of rounds in practice.
//
// The demo elects a leader among 4 replicas across several independent
// epochs and verifies that every epoch ends with exactly one agreed leader,
// even though each replica proposes itself.
#include <cstdio>
#include <vector>

#include "objects/randomized_consensus.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"

using namespace apram;

int main() {
  const int replicas = 4;
  const int epochs = 5;
  bool all_ok = true;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    sim::World world(replicas);
    RandomizedConsensusSim election(world, replicas);

    std::vector<std::int64_t> elected(replicas, -1);
    for (int pid = 0; pid < replicas; ++pid) {
      world.spawn(pid, [&, pid](sim::Context ctx) -> sim::ProcessTask {
        // Every replica proposes itself as leader.
        elected[static_cast<std::size_t>(pid)] = co_await election.propose(
            ctx, pid, /*coin_seed=*/static_cast<std::uint64_t>(epoch) * 1000 +
                          static_cast<std::uint64_t>(pid));
      });
    }
    sim::RandomScheduler sched(static_cast<std::uint64_t>(epoch) * 7919 + 17,
                               /*stickiness=*/epoch % 2 ? 0.6 : 0.0);
    const auto result = world.run(sched, 5'000'000);

    bool agreed = result.all_done;
    for (int pid = 1; pid < replicas && agreed; ++pid) {
      agreed = elected[static_cast<std::size_t>(pid)] == elected[0];
    }
    const bool valid = elected[0] >= 0 && elected[0] < replicas;
    all_ok = all_ok && agreed && valid;

    std::printf("epoch %d: votes {", epoch);
    for (int pid = 0; pid < replicas; ++pid) {
      std::printf("%s%lld", pid ? ", " : "",
                  static_cast<long long>(elected[static_cast<std::size_t>(pid)]));
    }
    std::printf("} -> leader = replica %lld, %llu shared steps  %s\n",
                static_cast<long long>(elected[0]),
                static_cast<unsigned long long>(world.total_counts().total()),
                agreed && valid ? "[agreed]" : "[DISAGREEMENT]");
  }

  std::printf("\n%s\n", all_ok
                            ? "every epoch elected exactly one leader, "
                              "wait-free, from reads and writes only."
                            : "ELECTION FAILED");
  return all_ok ? 0 : 1;
}
