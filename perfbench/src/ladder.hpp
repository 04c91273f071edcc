// perfbench — the per-access cost ladder and the solo exact-count step.
//
// The ladder times each lower layer's public functions directly: the
// std::atomic floor, the rt registers, the reclaim arena, and one FArray.
// The solo step drives each object from one thread on an n = 4 instance,
// checks that every op costs exactly its closed-form access count, and
// times the ops so that measured / (count x ladder cost) can be reported.
#pragma once

#include <string>

namespace perfbench {

struct Ladder {
  double atomic_load_ns = 0;
  double atomic_cas_ns = 0;
  double swmr_read_ns = 0;
  double swmr_write_ns = 0;
  double casvalue_read_ns = 0;
  double casvalue_read_contended_ns = 0;
  double casvalue_cas_ns = 0;
  double casvalue_cas_contended_ns = 0;
  double acquire_release_ns = 0;
  double farray_write_ns = 0;
  double farray_read_f_ns = 0;
  double sample_cost_ns = 0;  // two clock reads + one store
};

// `threads` = T; the contended rows run T-1 contenders.
Ladder run_ladder(int threads);

struct Solo {
  bool counts_exact = true;
  std::string mismatch;  // first mismatch, for the log
  double tree_update_ns = 0;
  double tree_scan_ns = 0;
  double enqueue_ns = 0;
  double dequeue_ns = 0;
  double u2_inc_ns = 0;

  // measured / (closed-form accesses x ladder cost per access)
  double update_model_ratio = 0;
  double scan_model_ratio = 0;
  double queue_model_ratio = 0;
  double u2_model_ratio = 0;
};

// Process count of the solo instances: a power of two, so the closed forms
// are exact (tree height 2).
inline constexpr int kSoloProcs = 4;

Solo run_solo(const Ladder& ladder);

}  // namespace perfbench
