// apram::universal2 — normalized counter representation.
//
// The flagship CounterSpec (§5.1) as a normalized rep: the whole state
// lives in ONE stamped CAS cell that embeds, next to the value, an
// applied-table — per process, the opseq of its latest applied mutation and
// that mutation's response. The table is the persistent evidence the
// wrap-up needs: "did operation (pid, opseq) take effect?" is decidable
// forever as table[pid].opseq >= opseq (opseqs are per-process increasing,
// and a process starts opseq k+1 only after k completed, so the table entry
// for an in-flight op is never overwritten).
//
// Costs: fast-path mutation = 1 read + 1 CAS; read = 1 read (prepare
// resolves it — reads linearize at the single cell read). Contrast with
// the paper construction's n²−1 reads + n+1 writes per op (§6.2) — the gap
// bench_e6 measures.
//
// Storage: the table is one contiguous block of {opseq, resp} entries from
// the BlockPool (util/block_pool.hpp), so a cell copy costs one pooled
// block. A Prep's `expected` carries only the seq — operator== compares
// nothing else — so it needs no copy of the table.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "objects/specs.hpp"
#include "universal2/normalized.hpp"
#include "util/assert.hpp"
#include "util/block_pool.hpp"

namespace apram::universal2 {

template <class B>
class CounterRep {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Invocation = CounterSpec::Invocation;
  using Response = CounterSpec::Response;

  // A pid's latest applied mutation: its opseq and its response.
  struct Applied {
    std::uint64_t opseq = 0;
    std::int64_t resp = 0;
  };

  struct Cell {
    std::uint64_t seq = 0;  // == compares this alone (ABA-free value CAS)
    std::int64_t value = 0;
    // [n], one entry per pid; empty in a Prep's `expected`.
    std::vector<Applied, BlockAllocator<Applied>> table;

    friend bool operator==(const Cell& a, const Cell& b) {
      return a.seq == b.seq;
    }
  };

  struct Prep {
    bool done = false;
    Response resp = 0;
    Cell expected{};  // the decision CAS, seq only (unused when done)
    Cell desired{};
  };

  static obs::OpKind op_kind(const Invocation&) {
    return obs::OpKind::kU2Execute;
  }
  static bool read_only(const Invocation& inv) {
    return inv.kind == CounterSpec::Kind::kRead;
  }

  CounterRep(typename B::Mem& mem, int num_procs, const std::string& name)
      : n_(num_procs) {
    APRAM_CHECK(num_procs >= 1);
    Cell init;
    init.table.resize(static_cast<std::size_t>(n_));
    cell_ = &mem.template make_cas<Cell>(name + ".cell", std::move(init));
  }

  int num_procs() const { return n_; }

  Coro<Prep> prepare(Ctx ctx, OpId id, const Invocation& inv) {
    (void)ctx;
    Cell cur = co_await ctx.read(*cell_);
    const auto pid = static_cast<std::size_t>(id.pid);
    Prep p;
    if (cur.table[pid].opseq >= id.opseq) {  // already applied by a helper
      p.done = true;
      p.resp = cur.table[pid].resp;
      co_return p;
    }
    if (inv.kind == CounterSpec::Kind::kRead) {
      p.done = true;
      p.resp = cur.value;  // linearizes at the cell read
      co_return p;
    }
    auto [next_value, resp] = CounterSpec::apply(cur.value, inv);
    p.expected.seq = cur.seq;
    p.desired = std::move(cur);
    p.desired.seq = p.expected.seq + 1;
    p.desired.value = next_value;
    p.desired.table[pid] = Applied{id.opseq, resp};
    co_return p;
  }

  Coro<Outcome<Response>> attempt(Ctx ctx, OpId id, const Invocation& inv,
                                  const Prep& prep) {
    (void)inv;
    const auto pid = static_cast<std::size_t>(id.pid);
    bool won = co_await ctx.cas(*cell_, prep.expected, prep.desired);
    if (won) {
      co_return Outcome<Response>{true, prep.desired.table[pid].resp};
    }
    // The CAS lost — but a rival helper may have installed this very prep
    // (slow path) or the op may have applied via an earlier candidate; the
    // applied-table answers definitively.
    Cell cur = co_await ctx.read(*cell_);
    if (cur.table[pid].opseq >= id.opseq) {
      co_return Outcome<Response>{true, cur.table[pid].resp};
    }
    co_return Outcome<Response>{false, 0};
  }

  const typename B::template CasReg<Cell>& cell_register() const {
    return *cell_;
  }

 private:
  int n_;
  typename B::template CasReg<Cell>* cell_ = nullptr;
};

}  // namespace apram::universal2

#include "universal2/wait_free_sim.hpp"

namespace apram::universal2 {

// Convenience facade: a wait-free counter over any backend.
template <class B>
class Counter2 {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Sim = WaitFreeSim<B, CounterRep<B>>;
  using Config = typename Sim::Config;

  Counter2(typename B::Mem& mem, int num_procs, const std::string& name,
           Config cfg = {})
      : rep_(mem, num_procs, name), sim_(mem, num_procs, rep_, name, cfg) {}

  Coro<std::int64_t> inc(Ctx ctx, std::int64_t by = 1) {
    return sim_.execute(ctx, CounterSpec::inc(by));
  }
  Coro<std::int64_t> dec(Ctx ctx, std::int64_t by = 1) {
    return sim_.execute(ctx, CounterSpec::dec(by));
  }
  Coro<std::int64_t> reset(Ctx ctx, std::int64_t to = 0) {
    return sim_.execute(ctx, CounterSpec::reset(to));
  }
  Coro<std::int64_t> read(Ctx ctx) {
    return sim_.execute(ctx, CounterSpec::read());
  }

  CounterRep<B>& rep() { return rep_; }
  const CounterRep<B>& rep() const { return rep_; }
  Sim& sim() { return sim_; }
  const Sim& sim() const { return sim_; }

 private:
  CounterRep<B> rep_;
  Sim sim_;
};

}  // namespace apram::universal2
