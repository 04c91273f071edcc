// The generic wait-free construction for commute/overwrite objects
// (Figure 4, §5.4), written once over the register-backend concept so the
// same code runs in the simulator and on real threads.
//
// Representation: a shared precedence graph of *entries*, one per completed
// operation. An entry records the invocation, the response, and n pointers
// to the latest entry of every process at the time the operation started
// (its snapshot *view*). The graph is rooted in an anchor array (the atomic
// snapshot object of §6): root[P] points to P's most recent entry.
//
// execute(P, inv):
//   Step 1 — take an atomic snapshot of the anchor array; collect the
//            entries reachable from it (the precedence graph); build its
//            linearization graph (Figure 3); topologically sort it; run the
//            sequential specification over that linearization to obtain the
//            state, and from it the response to `inv`.
//   Step 2 — create the entry and publish it with a single anchor write.
//
// Shared-memory cost: one snapshot scan (O(n²) reads/writes, §6.2) plus one
// anchor write — the O(n²) overhead Theorem/§5.4 promises. Traversal of the
// (immutable, already-published) entries is local bookkeeping; the paper
// accounts it as construction overhead, not as shared-memory steps. Each
// process owns an entry arena (std::deque — stable addresses); on rt the
// publishing anchor write is the release barrier that makes the entry
// contents visible to every later scanner.
//
// Per-op local work grows with the history (the linearization walks every
// reachable entry) — exactly the overhead §5.4 concedes and universal2's
// fast path eliminates; bench_e6 pins both numbers.
//
// Wrappers: UniversalObjectSim below (simulator) and
// universal2::PaperUniversalRT (real threads, universal2/rt.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "algebra/spec.hpp"
#include "api/sim_backend.hpp"
#include "graph/lingraph.hpp"
#include "obs/span.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "util/assert.hpp"

namespace apram {

template <class B, SequentialSpec S>
class PaperUniversal {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;

  struct Entry {
    int pid = -1;
    std::uint64_t seq = 0;  // per-process operation index (1-based)
    typename S::Invocation inv{};
    typename S::Response resp{};
    std::vector<const Entry*> preceding;  // anchor view at operation start
  };

  PaperUniversal(typename B::Mem& mem, int num_procs,
                 ScanMode mode = ScanMode::kOptimized)
      : n_(num_procs), root_(mem, num_procs, mode) {
    APRAM_CHECK(num_procs >= 1);
    per_proc_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      per_proc_.push_back(std::make_unique<PerProc>());
    }
  }

  int num_procs() const { return n_; }

  // Figure 4's execute().
  Coro<typename S::Response> execute(Ctx ctx, typename S::Invocation inv) {
    const int p = ctx.pid();
    PerProc& mine = *per_proc_[static_cast<std::size_t>(p)];
    ctx.op_begin(obs::OpKind::kExecute);

    // Step 1: atomic scan of the anchor array -> view -> linearize ->
    // replay the sequential spec -> response.
    ctx.op_phase(obs::Phase::kCollect);
    SnapshotView<const Entry*> view = co_await root_.scan(ctx);
    const std::vector<const Entry*> lin = linearize_view(view);
    std::vector<typename S::Invocation> invs;
    invs.reserve(lin.size());
    for (const Entry* e : lin) invs.push_back(e->inv);
    auto run = run_sequential<S>(invs);
    typename S::Response resp = S::apply(run.final_state, inv).second;

    // Create the entry (owner-local arena; immutable once published).
    Entry& e = mine.arena.emplace_back();
    e.pid = p;
    e.seq = ++mine.next_seq;
    e.inv = std::move(inv);
    e.resp = resp;
    e.preceding.resize(static_cast<std::size_t>(n_), nullptr);
    for (int q = 0; q < n_; ++q) {
      const auto& slot = view[static_cast<std::size_t>(q)];
      if (slot.has_value()) e.preceding[static_cast<std::size_t>(q)] = *slot;
    }

    // Step 2: publish with a single anchor write.
    ctx.op_phase(obs::Phase::kPublish);
    co_await root_.update(ctx, &e);
    ctx.op_end(obs::OpKind::kExecute);
    co_return resp;
  }

  std::size_t entries_created(int p) const {
    return per_proc_[static_cast<std::size_t>(p)]->arena.size();
  }

  // The linearized history of the entries reachable from the *current*
  // anchor state: every process's latest post, read from the anchor's
  // level-0 registers without simulation steps. Simulator only (rt
  // registers have no side-effect-free peek()); test-only.
  std::vector<const Entry*> current_history() const {
    using L = TaggedVectorLattice<const Entry*>;
    typename L::Value joined = L::bottom();
    for (int q = 0; q < n_; ++q) {
      joined = L::join(std::move(joined),
                       root_.lattice_scan().register_at(q, 0).peek());
    }
    return linearize_view(L::unpack(joined, static_cast<std::size_t>(n_)));
  }

 private:
  struct alignas(64) PerProc {
    std::deque<Entry> arena;  // stable addresses; this process is the writer
    std::uint64_t next_seq = 0;
  };

  // Collects the entries reachable from `view`, builds the precedence DAG
  // from the direct `preceding` pointers (reachability supplies the rest),
  // applies the Figure 3 construction with Definition 14 dominance as the
  // tie-break, and returns the entries in linearization order. The
  // canonical node order is (pid, seq) — stable across processes and
  // replays, so identical views linearize identically everywhere (the
  // agreement property Figure 4 needs).
  static std::vector<const Entry*> linearize_view(
      const SnapshotView<const Entry*>& view) {
    // Discover reachable entries.
    std::vector<const Entry*> stack;
    std::set<const Entry*> seen;
    for (const auto& slot : view) {
      if (slot.has_value() && *slot != nullptr && seen.insert(*slot).second) {
        stack.push_back(*slot);
      }
    }
    std::vector<const Entry*> nodes;
    while (!stack.empty()) {
      const Entry* e = stack.back();
      stack.pop_back();
      nodes.push_back(e);
      for (const Entry* pred : e->preceding) {
        if (pred != nullptr && seen.insert(pred).second) stack.push_back(pred);
      }
    }

    // Canonical node order: by (pid, seq).
    std::sort(nodes.begin(), nodes.end(), [](const Entry* a, const Entry* b) {
      return std::make_pair(a->pid, a->seq) < std::make_pair(b->pid, b->seq);
    });
    std::map<const Entry*, int> index;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      index.emplace(nodes[i], static_cast<int>(i));
    }

    // Precedence DAG from the direct preceding pointers.
    Digraph prec(static_cast<int>(nodes.size()));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (const Entry* pred : nodes[i]->preceding) {
        if (pred == nullptr) continue;
        const int pi = index.at(pred);
        if (pi != static_cast<int>(i) &&
            !prec.has_edge(pi, static_cast<int>(i))) {
          prec.add_edge(pi, static_cast<int>(i));
        }
      }
    }

    const std::vector<int> order = linearize(prec, [&](int a, int b) {
      const Entry* ea = nodes[static_cast<std::size_t>(a)];
      const Entry* eb = nodes[static_cast<std::size_t>(b)];
      return dominates<S>(ea->inv, ea->pid, eb->inv, eb->pid);
    });

    std::vector<const Entry*> out;
    out.reserve(order.size());
    for (int i : order) out.push_back(nodes[static_cast<std::size_t>(i)]);
    return out;
  }

  int n_;
  snapshot::AtomicSnapshot<B, const Entry*> root_;  // the anchor array
  std::vector<std::unique_ptr<PerProc>> per_proc_;
};

// Simulator instantiation under the historical name: (World&, n, mode).
template <SequentialSpec S>
using UniversalObjectSim = PaperUniversal<api::SimBackend, S>;

}  // namespace apram
