// apram::universal2 — the normalized-representation concept.
//
// The paper's universal construction (core/universal.hpp) charges every
// operation the full O(n²) scan-and-agree overhead even with no contention.
// universal2 is the modern alternative (Timnat–Petrank, "A Practical
// Wait-Free Simulation for Lock-Free Data Structures", PPoPP'14): the
// operation is *normalized* into
//
//   1. a GENERATOR  — a read-only pass that either resolves the operation
//      outright or produces one decision CAS (the "CAS list" collapses to a
//      single CAS here: every client in this repo decides with one CAS),
//   2. the DECISION CAS itself, and
//   3. a WRAP-UP    — a resolve step that, given the generator's output,
//      decides from *persistent* evidence whether the decision CAS took
//      effect (possibly executed by a different process).
//
// The fast path runs 1→2→3 privately (lock-free). After K failed fast-path
// attempts the operation is published in a bounded help queue and every
// process drives it through the same three steps via a per-process state
// record (help_queue.hpp, wait_free_sim.hpp) — making the whole simulation
// wait-free.
//
// A rep R for backend B supplies:
//
//   R::Invocation  — the operation descriptor (copyable, stored in records).
//   R::Response    — the result type.
//   R::Prep        — the generator's output. Must expose `bool done` and
//                    `Response resp` (set when the generator resolved the
//                    operation without a CAS) plus whatever the rep needs to
//                    execute/resolve the decision CAS. Default-constructible
//                    and copyable (it is stored in the shared state record).
//   R::prepare(ctx, id, inv) -> Coro<Prep>
//                  — the generator. MUST NOT make the operation visible:
//                    any helper may run it concurrently for the same id, and
//                    all but one output is discarded. It may perform benign
//                    auxiliary CASes (e.g. unlinking marked nodes) and may
//                    initialize *private* memory (e.g. a fresh node), but
//                    the operation itself must take effect only through the
//                    decision CAS described by the returned Prep.
//   R::attempt(ctx, id, inv, prep) -> Coro<Outcome<Response>>
//                  — executes the decision CAS, then resolves: returns
//                    {decided=true, resp} iff the operation for `id` took
//                    effect via THIS prep's CAS (whoever executed it), and
//                    {decided=false} iff it definitively did not and a fresh
//                    prepare is needed. The resolution must stay correct
//                    when invoked late by a stale helper (see the
//                    leave-invariant in wait_free_sim.hpp). An unannounced
//                    id has no helpers (OpId::announced), so its lost CAS
//                    may answer {decided=false} without reading evidence.
//   R::op_kind(inv) — the obs span kind for this invocation.
//   R::read_only(inv) — true when prepare() always resolves the operation
//                    (no decision CAS, no helping needed); such invocations
//                    never leave the fast path.
//
// ABA discipline: every CAS-register value embeds a never-repeating stamp
// and compares equal on the stamp alone (the Stamped idiom of
// farray/farray.hpp: an increasing `seq`, or the counter's install tag), so
// a decision CAS whose expected value was ever overwritten fails forever —
// the property the wrap-up's "definitively did not take effect" answers
// rely on.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "api/backend.hpp"
#include "obs/span.hpp"

namespace apram::universal2 {

// Identity of one operation: (pid, opseq) with opseq per-process increasing.
// Reps use it to tag persistent evidence (install tags, node ownership).
struct OpId {
  int pid = -1;
  std::uint64_t opseq = 0;
  // Set only on the ids WaitFreeSim::help_record builds, i.e. once the op
  // sits in the help queue. Helpers learn of an op only from that queue, so
  // before the announce the owner is the op's one executor: it runs every
  // prepare and attempt itself and learns the outcome from its own decision
  // CAS. A rep may therefore answer a lost decision CAS of an unannounced id
  // with {decided=false} at once, and need keep no evidence that a later
  // resolver could ask about an unannounced install. Once announced, every
  // prepare/attempt of the op carries the bit and the full wrap-up applies.
  bool announced = false;

  friend bool operator==(const OpId&, const OpId&) = default;
};

// attempt()'s result: decided=false means "this prep's CAS definitively did
// not apply the operation; re-prepare".
template <class Resp>
struct Outcome {
  bool decided = false;
  Resp resp{};
};

template <class R, class B>
concept NormalizedRepFor =
    requires(R& r, typename B::Ctx ctx, OpId id,
             const typename R::Invocation& inv, typename R::Prep& prep) {
      typename R::Invocation;
      typename R::Response;
      typename R::Prep;
      requires std::is_default_constructible_v<typename R::Prep>;
      requires std::is_copy_constructible_v<typename R::Prep>;
      { prep.done } -> std::convertible_to<bool>;
      { prep.resp } -> std::convertible_to<typename R::Response>;
      { R::op_kind(inv) } -> std::same_as<obs::OpKind>;
      { R::read_only(inv) } -> std::same_as<bool>;
      {
        r.prepare(ctx, id, inv)
      } -> std::same_as<typename B::template Coro<typename R::Prep>>;
      {
        r.attempt(ctx, id, inv, prep)
      } -> std::same_as<
          typename B::template Coro<Outcome<typename R::Response>>>;
    };

}  // namespace apram::universal2
