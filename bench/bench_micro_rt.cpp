// Micro-benchmarks (google-benchmark) for the real-thread runtime: register
// read/write latency, snapshot scan/update latency vs n, counter ops.
// Single-threaded latency numbers — the multi-thread throughput shapes live
// in bench_e5_snapshot_compare.
#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "objects/fast_counter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/rt_probe.hpp"
#include "rt/register.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"

namespace apram::rt {
namespace {

// Shared registry so the probed benchmarks below feed the metrics artifact
// written by main(). Event counts depend on benchmark iteration counts and
// are interesting only as magnitudes, not exact values.
obs::Registry& bench_registry() {
  static obs::Registry reg;
  return reg;
}

void BM_RegisterRead(benchmark::State& state) {
  SWMRRegister<std::int64_t> reg(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
}
BENCHMARK(BM_RegisterRead);

void BM_RegisterWrite(benchmark::State& state) {
  SWMRRegister<std::int64_t> reg(0);
  std::int64_t i = 0;
  for (auto _ : state) {
    reg.write(++i);
  }
}
BENCHMARK(BM_RegisterWrite);

// The same word-sized accesses through the version arena: one fetch_add +
// one fetch_sub per read, alloc/publish/transfer per write. That is the toll
// values too large to inline (tagged vectors, universal2 records) pay; the
// delta against the inline rows above is what inlining saves per access.
// A word with a pad byte is not its bits, so Register keeps it in the arena.
struct ArenaWord {
  std::int64_t v;
  bool pad = false;
  friend bool operator==(const ArenaWord& a, const ArenaWord& b) {
    return a.v == b.v;
  }
};
static_assert(!kInlineRegister<ArenaWord>);

void BM_RegisterReadArena(benchmark::State& state) {
  SWMRRegister<ArenaWord> reg(ArenaWord{42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
}
BENCHMARK(BM_RegisterReadArena);

void BM_RegisterWriteArena(benchmark::State& state) {
  SWMRRegister<ArenaWord> reg(ArenaWord{0});
  std::int64_t i = 0;
  for (auto _ : state) {
    reg.write(ArenaWord{++i});
  }
}
BENCHMARK(BM_RegisterWriteArena);

void BM_CasRegisterSwap(benchmark::State& state) {
  CASValueRegister<std::int64_t> reg(1, 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.compare_exchange(0, i, i + 1));
    ++i;
  }
}
BENCHMARK(BM_CasRegisterSwap);

void BM_CasRegisterSwapArena(benchmark::State& state) {
  CASValueRegister<ArenaWord> reg(1, ArenaWord{0});
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reg.compare_exchange(0, ArenaWord{i}, ArenaWord{i + 1}));
    ++i;
  }
}
BENCHMARK(BM_CasRegisterSwapArena);

// Same register paths with an obs::RtProbe attached: the delta against
// BM_RegisterRead/Write is the cost of the one-relaxed-fetch_add hot path
// (the budget documented in DESIGN.md).
void BM_RegisterReadProbed(benchmark::State& state) {
  auto& reg = bench_registry();
  obs::RtProbe probe{.reads = &reg.counter("micro.probed.reads"),
                     .writes = &reg.counter("micro.probed.writes"),
                     .cas_ops = &reg.counter("micro.probed.cas"),
                     .object = 0};
  SWMRRegister<std::int64_t> r(42);
  r.attach_probe(&probe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.read());
  }
}
BENCHMARK(BM_RegisterReadProbed);

void BM_RegisterWriteProbed(benchmark::State& state) {
  auto& reg = bench_registry();
  obs::RtProbe probe{.reads = &reg.counter("micro.probed.reads"),
                     .writes = &reg.counter("micro.probed.writes"),
                     .cas_ops = &reg.counter("micro.probed.cas"),
                     .object = 0};
  SWMRRegister<std::int64_t> r(0);
  r.attach_probe(&probe);
  std::int64_t i = 0;
  for (auto _ : state) {
    r.write(++i);
  }
}
BENCHMARK(BM_RegisterWriteProbed);

void BM_SnapshotUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AtomicSnapshotRT<std::int64_t> snap(n);
  std::int64_t i = 0;
  for (auto _ : state) {
    snap.update(0, ++i);
  }
  state.SetLabel("n=" + std::to_string(n));
}
BENCHMARK(BM_SnapshotUpdate)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SnapshotScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AtomicSnapshotRT<std::int64_t> snap(n);
  for (int p = 0; p < n; ++p) snap.update(p, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.scan(0));
  }
  state.SetLabel("n=" + std::to_string(n) + " (expect ~n^2 growth)");
}
BENCHMARK(BM_SnapshotScan)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FastCounterInc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FastCounterRT ctr(n);
  for (auto _ : state) {
    ctr.inc(0, 1);
  }
}
BENCHMARK(BM_FastCounterInc)->Arg(4)->Arg(16);

void BM_FastCounterRead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FastCounterRT ctr(n);
  for (int p = 0; p < n; ++p) ctr.inc(p, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr.read(0));
  }
}
BENCHMARK(BM_FastCounterRead)->Arg(4)->Arg(16);

}  // namespace
}  // namespace apram::rt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string path =
      apram::obs::artifact_path("bench_micro_rt.metrics.json");
  apram::obs::write_metrics_json(path, apram::rt::bench_registry(), nullptr,
                                 "bench_micro_rt");
  std::cout << "metrics artifact: " << path << "\n";
  return 0;
}
