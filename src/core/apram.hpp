// libapram — umbrella header.
//
// Wait-free data structures in the asynchronous PRAM model, after
// Aspnes & Herlihy (SPAA 1990). Including this header pulls in the whole
// public API; the individual headers are self-contained if you want less.
//
// Layering (bottom to top):
//
//   util/       — rng, stats, tables, flags               (no dependencies)
//   obs/        — observability: sharded metrics registry, ring-buffer
//                 event tracer, JSON exporter, replay artifacts
//   sim/        — the asynchronous PRAM simulator: coroutine processes,
//                 atomic registers, schedulers, deterministic replay
//   fault/      — crash/stall plans, wait-freedom certifier, rt injector
//   rt/         — real-thread runtime: std::atomic registers, version
//                 reclamation, thread harness
//   api/        — the register-backend concept (SimBackend, RtBackend):
//                 every algorithm below is one template over it, run in
//                 the simulator (…Sim aliases) and on threads (…RT wrappers)
//   lattice/    — ∨-semilattices (max, set-union, tagged-vector, product)
//   farray/     — the stamped-CAS f-array combine tree
//   snapshot/   — the §6 lattice Scan and atomic snapshot object, the tree
//                 snapshot, plus the double-collect / AADGMS / mutex baselines
//   agreement/  — §4 approximate agreement (Figure 2), the midpoint
//                 two-process testbed, and the Lemma 6 adversary
//   algebra/    — §5.1 sequential specs and the commute/overwrite algebra
//   graph/      — §5.3 precedence graphs and the Figure 3 lingraph
//   core/       — §5.4 universal construction for commute/overwrite objects
//   objects/    — counter, grow-set, max-register, Lamport clock,
//                 type-optimized FastCounter, pseudo read-modify-write,
//                 polylog queue, union-find
//   universal2/ — normalized fast/slow-path wait-free objects
//   lincheck/   — history recording and a Wing–Gong linearizability checker
#pragma once

#include "agreement/adversary.hpp"
#include "agreement/approx_agreement.hpp"
#include "agreement/approx_spec.hpp"
#include "agreement/midpoint_agreement.hpp"
#include "algebra/check.hpp"
#include "algebra/spec.hpp"
#include "api/backend.hpp"
#include "api/eager_coro.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "core/universal.hpp"
#include "farray/farray.hpp"
#include "fault/certifier.hpp"
#include "fault/nemesis.hpp"
#include "fault/rt_inject.hpp"
#include "graph/digraph.hpp"
#include "graph/lingraph.hpp"
#include "lattice/lattice.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "objects/adopt_commit.hpp"
#include "objects/counter.hpp"
#include "objects/fast_counter.hpp"
#include "objects/grow_set.hpp"
#include "objects/join_map.hpp"
#include "objects/logical_clock.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/pseudo_rmw.hpp"
#include "objects/randomized_consensus.hpp"
#include "objects/specs.hpp"
#include "objects/union_find.hpp"
#include "obs/analyze.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/replay_artifact.hpp"
#include "obs/rt_probe.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "sim/explore.hpp"
#include "sim/replay.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/baselines/mutex_snapshot.hpp"
#include "snapshot/lattice_agreement.hpp"
#include "snapshot/lattice_scan.hpp"
#include "snapshot/scan_stats.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/rt.hpp"
