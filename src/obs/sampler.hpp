// apram::obs — deterministic 1-in-N operation sampler.
//
// At t16+ the per-pid trace rings overflow and the tracer truncates
// wholesale — the newest events survive, everything earlier is marked
// kTruncated, and `apram-trace check` has nothing left to verify. Sampling
// fixes that with *exact subset semantics*: the keep/drop decision is a
// pure function of (seed, pid, op id), so every event of a kept operation
// survives and every event of a dropped operation disappears — sampled
// spans are complete spans, and per-op bounds (tree_update = 1+8⌈log₂n⌉,
// u2_help = n−1, …) verify on the sampled population exactly as they would
// on a full trace. Only population-level counts (ops/sec, help totals)
// scale by the sampling rate.
//
// Determinism: the decision hashes (seed, pid, op) with splitmix64 — no
// global state, no RNG stream to synchronize. All events carrying a given
// op id are emitted by the op's owner pid (helpers record kHelp into the
// *owner's* span), so one (pid, op) decision covers the whole span: the
// Tracer takes it once, at op_begin, and keeps it in the span's stack
// frame, so the span's later events neither rehash nor read the clock. The
// same seed reproduces the same subset across runs; different seeds select
// different subsets (obs_test pins both).
//
// Events with op == 0 (spawn/done/crash, un-spanned accesses) are never
// sampled out — they are population metadata, not span members.
#pragma once

#include <cstdint>

namespace apram::obs {

struct SpanSampler {
  std::uint64_t seed = 0;
  std::uint32_t rate = 1;  // keep 1 op in `rate`; rate <= 1 keeps everything

  // True iff operation `op` of process `pid` is in the sampled subset.
  bool keep(std::int32_t pid, std::uint64_t op) const {
    if (rate <= 1 || op == 0) return true;
    // splitmix64 over the (seed, pid, op) tuple. Finalizer constants from
    // Sebastiano Vigna's splitmix64; the mix is bijective per input word,
    // so low-entropy (pid, op) pairs still spread uniformly over rate
    // residues.
    std::uint64_t x = seed ^ (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(pid))
                              << 32) ^ op;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x = x ^ (x >> 31);
    return x % rate == 0;
  }
};

}  // namespace apram::obs
