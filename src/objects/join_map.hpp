// Wait-free join-map: a dictionary whose per-key values merge by max.
//
// Another member of the §5.1 commute/overwrite class ("certain kinds of set
// abstractions"): put(k, v) raises key k to at least v. Puts commute — even
// on the same key, because the per-key merge is a join (max) and the
// response is void. Lookups and size queries are overwritten by everything.
// The natural use is tracking per-entity high-water marks (largest offset
// acknowledged per partition, newest version per document, ...).
#pragma once

#include <map>
#include <utility>

#include "core/universal.hpp"

namespace apram {

struct JoinMapSpec {
  enum class Kind : std::uint8_t { kPut, kGet, kSize };

  struct Invocation {
    Kind kind = Kind::kSize;
    std::int64_t key = 0;
    std::int64_t value = 0;

    friend bool operator==(const Invocation&, const Invocation&) = default;
  };
  using State = std::map<std::int64_t, std::int64_t>;
  using Response = std::int64_t;  // get: value or kMissing; size: count

  static constexpr Response kMissing = std::numeric_limits<std::int64_t>::min();

  static State initial() { return {}; }

  static std::pair<State, Response> apply(const State& s,
                                          const Invocation& inv) {
    switch (inv.kind) {
      case Kind::kPut: {
        State next = s;
        auto [it, inserted] = next.try_emplace(inv.key, inv.value);
        if (!inserted && it->second < inv.value) it->second = inv.value;
        return {std::move(next), 0};
      }
      case Kind::kGet: {
        auto it = s.find(inv.key);
        return {s, it == s.end() ? kMissing : it->second};
      }
      case Kind::kSize:
        return {s, static_cast<Response>(s.size())};
    }
    return {s, 0};
  }

  static bool is_query(Kind k) { return k != Kind::kPut; }

  static bool commutes(const Invocation& p, const Invocation& q) {
    if (p.kind == Kind::kPut && q.kind == Kind::kPut) return true;
    return is_query(p.kind) && is_query(q.kind);
  }

  static bool overwrites(const Invocation& q, const Invocation& p) {
    (void)q;
    return is_query(p.kind);  // everything overwrites a query
  }

  static Invocation put(std::int64_t k, std::int64_t v) {
    return {Kind::kPut, k, v};
  }
  static Invocation get(std::int64_t k) { return {Kind::kGet, k, 0}; }
  static Invocation size() { return {Kind::kSize, 0, 0}; }
};

class JoinMapSim {
 public:
  JoinMapSim(sim::World& world, int num_procs,
             ScanMode mode = ScanMode::kOptimized)
      : u_(world, num_procs, mode) {}

  sim::SimCoro<void> put(sim::Context ctx, std::int64_t k, std::int64_t v) {
    co_await u_.execute(ctx, JoinMapSpec::put(k, v));
  }
  // Returns the value for k, or nullopt if absent.
  sim::SimCoro<std::optional<std::int64_t>> get(sim::Context ctx,
                                                std::int64_t k) {
    const std::int64_t r = co_await u_.execute(ctx, JoinMapSpec::get(k));
    if (r == JoinMapSpec::kMissing) co_return std::nullopt;
    co_return r;
  }
  sim::SimCoro<std::int64_t> size(sim::Context ctx) {
    const std::int64_t r = co_await u_.execute(ctx, JoinMapSpec::size());
    co_return r;
  }

 private:
  UniversalObjectSim<JoinMapSpec> u_;
};

}  // namespace apram
