// Wing–Gong style linearizability checker.
//
// Searches for a legal sequential witness: a total order of the history's
// operations that (a) extends the real-time precedence order and (b) replays
// through the sequential specification with every completed operation
// producing exactly its recorded response. Pending operations may either
// take effect (with whatever response the spec gives) or be dropped.
//
// The search is exponential in the worst case; memoization on (done-mask,
// state) keeps it tractable for the history sizes the tests generate
// (≤ ~30 operations). Histories must have at most 64 operations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "lincheck/history.hpp"
#include "util/assert.hpp"

namespace apram {

template <SequentialSpec S>
class LinearizabilityChecker {
 public:
  explicit LinearizabilityChecker(std::vector<RecordedOp<S>> history)
      : ops_(std::move(history)) {
    APRAM_CHECK_MSG(ops_.size() <= 64, "history too large for bitmask search");
  }

  // True iff the history is linearizable with respect to S. Idempotent:
  // repeated calls return the same verdict and leave the same witness, with
  // no state leaking from one search into the next.
  bool check() {
    memo_.clear();
    witness_.clear();
    const bool ok = search(0, S::initial());
    if (!ok) {
      // Guarantee the witness() postcondition even if a future edit to
      // search() ever pushes onto a failing path: a failed check must never
      // expose a partial (or stale) linearization.
      witness_.clear();
      return false;
    }
    // The witness is accumulated on the unwind, deepest-first; reverse it
    // into linearization order. Dropped pending ops do not appear.
    std::reverse(witness_.begin(), witness_.end());
    return true;
  }

  // A witness order (indices into the history, excluding any dropped pending
  // operations). Empty unless the most recent check() returned true.
  const std::vector<std::size_t>& witness() const { return witness_; }

 private:
  using Mask = std::uint64_t;

  bool all_done(Mask done) const {
    return done == ((ops_.size() == 64)
                        ? ~Mask{0}
                        : ((Mask{1} << ops_.size()) - 1));
  }

  // Op i may linearize next if every operation that precedes it in real
  // time has already been placed.
  bool ready(std::size_t i, Mask done) const {
    for (std::size_t j = 0; j < ops_.size(); ++j) {
      if (j == i || (done >> j) & 1) continue;
      if (precedes<S>(ops_[j], ops_[i])) return false;
    }
    return true;
  }

  bool search(Mask done, const typename S::State& state) {
    if (all_done(done)) return true;
    const auto key = std::make_pair(done, state);
    auto [it, inserted] = memo_.emplace(key, false);
    if (!inserted) return false;  // visited and failed (or in progress)

    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if ((done >> i) & 1) continue;
      if (!ready(i, done)) continue;
      const auto [next_state, resp] = S::apply(state, ops_[i].inv);
      if (ops_[i].pending()) {
        // Option A: the pending op took effect (any response is fine).
        if (search(done | (Mask{1} << i), next_state)) {
          witness_.push_back(i);
          return true;
        }
        // Option B: the pending op never took effect.
        if (search(done | (Mask{1} << i), state)) {
          return true;
        }
      } else if (resp == ops_[i].resp) {
        if (search(done | (Mask{1} << i), next_state)) {
          witness_.push_back(i);
          return true;
        }
      }
    }
    return false;
  }

  std::vector<RecordedOp<S>> ops_;
  std::map<std::pair<Mask, typename S::State>, bool> memo_;
  std::vector<std::size_t> witness_;
};

template <SequentialSpec S>
bool is_linearizable(std::vector<RecordedOp<S>> history) {
  LinearizabilityChecker<S> checker(std::move(history));
  return checker.check();
}

}  // namespace apram
