// The atomic scan of Section 6 (Figure 5), over an arbitrary ∨-semilattice —
// written ONCE against the apram::api register-backend concept and
// instantiated both in the simulator (apram::LatticeScanSim below) and on
// real threads (apram::rt::LatticeScanRT, also below). The snapshot object
// built on it is snapshot/atomic_snapshot.hpp.
//
// Processes share an n×(n+2) matrix `scan[1..n][0..n+1]` of single-writer
// multi-reader registers holding lattice values; process P writes only row P.
// The Scan(P, v) primitive is (Figure 5):
//
//     scan[P][0] := v ∨ scan[P][0]
//     for i in 1..n+1:
//       for Q in 1..n:
//         scan[P][i] := scan[P][i] ∨ scan[Q][i-1]
//     return scan[P][n+1]
//
// Lemma 32 shows any two Scan return values are comparable in the lattice,
// which yields linearizability (Theorem 33).
//
// Operation accounting (§6.2). With per-pass accumulation (join locally, one
// register write per pass — the counting the paper uses):
//
//   kPlain:     n²+n+1 reads, n+2 writes per Scan
//   kOptimized: n²−1  reads, n+1 writes per Scan
//
// The optimized mode drops the final write (scan[P][n+1] is returned locally)
// and replaces reads of P's own registers with a local cache — sound because
// each register has a single writer, so the owner always knows its contents.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "lattice/lattice.hpp"
#include "obs/span.hpp"
#include "sim/world.hpp"

namespace apram {

enum class ScanMode {
  kPlain,      // every access in Figure 5 hits shared memory
  kOptimized,  // §6.2: skip self-reads and the final write
};

// Closed-form per-Scan costs from §6.2.
constexpr std::uint64_t expected_scan_reads(int n, ScanMode mode) {
  const auto un = static_cast<std::uint64_t>(n);
  return mode == ScanMode::kPlain
             ? un * un + un + 1  // 1 + n reads in each of n+1 passes
             : un * un - 1;      // (n+1)(n-1): self-reads served from cache
}

constexpr std::uint64_t expected_scan_writes(int n, ScanMode mode) {
  const auto un = static_cast<std::uint64_t>(n);
  return mode == ScanMode::kPlain
             ? un + 2   // level-0 write + one per pass
             : un + 1;  // final pass returns locally instead of writing
}

namespace snapshot {

template <class B, Semilattice L>
  requires api::BackendFor<B, typename L::Value>
class LatticeScan {
 public:
  using Value = typename L::Value;
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;

  // Creates the scan matrix in `mem` for `num_procs` processes. All
  // registers are single-writer: row P is writable only by pid P.
  LatticeScan(typename B::Mem& mem, int num_procs,
              ScanMode mode = ScanMode::kOptimized)
      : n_(num_procs), mode_(mode) {
    APRAM_CHECK(num_procs >= 1);
    regs_.resize(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      regs_[static_cast<std::size_t>(p)].reserve(
          static_cast<std::size_t>(n_) + 2);
      for (int i = 0; i <= n_ + 1; ++i) {
        regs_[static_cast<std::size_t>(p)].push_back(
            &mem.template make<Value>(L::bottom(), /*writer=*/p));
      }
    }
    caches_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      caches_.push_back(std::make_unique<Cache>());
      caches_.back()->row.assign(static_cast<std::size_t>(n_) + 2,
                                 L::bottom());
    }
  }

  int num_procs() const { return n_; }

  // Figure 5 verbatim. Joins v into P's input cell, performs the n+1 merge
  // passes, and returns the join of everything the passes saw.
  //
  // Style note: every co_await sits alone in its own statement. GCC 12
  // miscompiles co_await inside conditional expressions and call arguments
  // for coroutines with non-trivially-copyable locals (wrong-code, observed
  // as an infinite loop), so the hoisted form is mandatory here.
  Coro<Value> scan(Ctx ctx, Value v) {
    const int p = ctx.pid();
    auto& cache = caches_[static_cast<std::size_t>(p)]->row;

    // Span markers are local bookkeeping (zero model steps); explicit
    // begin/end, not RAII, so a crashed frame leaves the span open — see
    // obs/span.hpp.
    ctx.op_begin(obs::OpKind::kScan);

    // scan[P][0] := v ∨ scan[P][0]
    Value acc0 = std::move(v);
    if (mode_ == ScanMode::kPlain) {
      Value old0 = co_await ctx.read(reg(p, 0));
      acc0 = L::join(std::move(acc0), old0);
    } else {
      acc0 = L::join(std::move(acc0), cache[0]);
    }
    cache[0] = acc0;
    co_await ctx.write(reg(p, 0), std::move(acc0));

    for (int i = 1; i <= n_ + 1; ++i) {
      // Per-pass accumulation: start from P's current level-i value (known
      // locally — single writer), join every level-(i-1) register, write the
      // result once. This is the per-pass cost §6.2 counts.
      ctx.op_phase(obs::Phase::kCollect, i);
      Value acc = cache[static_cast<std::size_t>(i)];
      for (int q = 0; q < n_; ++q) {
        if (q == p && mode_ == ScanMode::kOptimized) {
          acc = L::join(std::move(acc), cache[static_cast<std::size_t>(i - 1)]);
        } else {
          Value got = co_await ctx.read(reg(q, i - 1));
          acc = L::join(std::move(acc), got);
        }
      }
      cache[static_cast<std::size_t>(i)] = acc;
      if (i <= n_ || mode_ == ScanMode::kPlain) {
        co_await ctx.write(reg(p, i), std::move(acc));
      }
    }
    ctx.op_end(obs::OpKind::kScan);
    co_return cache[static_cast<std::size_t>(n_) + 1];
  }

  // Write_L(P, v): contribute v to the lattice state (discard the join).
  // The nested scan() opens its own kScan span, which owns the accesses;
  // this outer span records the operation the caller asked for.
  Coro<void> write_l(Ctx ctx, Value v) {
    ctx.op_begin(obs::OpKind::kWriteL);
    co_await scan(ctx, std::move(v));
    ctx.op_end(obs::OpKind::kWriteL);
  }

  // ReadMax(P): the join of all values written so far.
  Coro<Value> read_max(Ctx ctx) {
    ctx.op_begin(obs::OpKind::kReadMax);
    Value joined = co_await scan(ctx, L::bottom());
    ctx.op_end(obs::OpKind::kReadMax);
    co_return joined;
  }

  // Cheap contribution used by the snapshot object (§6, closing paragraph):
  // P "writes the P-th position in the anchor array by initializing
  // scan[P][0]" — one write (plus one read of the old cell in kPlain mode),
  // with no merge passes. Readers pick the value up via scan().
  Coro<void> post(Ctx ctx, Value v) {
    const int p = ctx.pid();
    auto& cache = caches_[static_cast<std::size_t>(p)]->row;
    ctx.op_begin(obs::OpKind::kPost);
    Value acc = std::move(v);
    if (mode_ == ScanMode::kPlain) {
      Value old0 = co_await ctx.read(reg(p, 0));
      acc = L::join(std::move(acc), old0);
    } else {
      acc = L::join(std::move(acc), cache[0]);
    }
    cache[0] = acc;
    co_await ctx.write(reg(p, 0), std::move(acc));
    ctx.op_end(obs::OpKind::kPost);
  }

  // Test/debug access to the underlying register matrix.
  const typename B::template Reg<Value>& register_at(int p, int i) const {
    return reg(p, i);
  }

 private:
  // Each process's cache row lives on its own cache lines (matters for the
  // rt backend; harmless in the simulator).
  struct alignas(64) Cache {
    std::vector<Value> row;
  };

  typename B::template Reg<Value>& reg(int p, int i) const {
    APRAM_CHECK(p >= 0 && p < n_ && i >= 0 && i <= n_ + 1);
    return *regs_[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
  }

  int n_;
  ScanMode mode_;
  // [n][n+2]; cache_[p] mirrors row p, coherent because p is its only writer.
  std::vector<std::vector<typename B::template Reg<Value>*>> regs_;
  std::vector<std::unique_ptr<Cache>> caches_;
};

}  // namespace snapshot

// Simulator instantiation under the historical name: (World&, n, mode).
template <Semilattice L>
using LatticeScanSim = snapshot::LatticeScan<api::SimBackend, L>;

// Real-thread instantiation under the historical rt class name: a thin
// wrapper over the backend-templated class with the int-pid call style (see
// api::RtObject). Thread p may call only the p-indexed entry points (the
// single-writer discipline of the model).
namespace rt {

template <Semilattice L>
class LatticeScanRT : public api::RtObject {
 public:
  using Value = typename L::Value;

  explicit LatticeScanRT(int num_procs, ScanMode mode = ScanMode::kOptimized)
      : RtObject(num_procs), impl_(mem_, num_procs, mode) {}

  // Figure 5; callable only by thread p.
  Value scan(int p, Value v) {
    return impl_.scan(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

  void write_l(int p, Value v) {
    impl_.write_l(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

  Value read_max(int p) {
    return impl_.read_max(api::RtBackend::Ctx{p}).get();
  }

  // One-write contribution (snapshot update path).
  void post(int p, Value v) {
    impl_.post(api::RtBackend::Ctx{p}, std::move(v)).get();
  }

 private:
  snapshot::LatticeScan<api::RtBackend, L> impl_;
};

}  // namespace rt

}  // namespace apram
