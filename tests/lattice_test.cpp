// Lattice-law property tests: every Semilattice instance must satisfy
// associativity, commutativity, idempotence, bottom-identity, and the
// leq/join consistency law. Randomized value generation per instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "lattice/lattice.hpp"
#include "util/rng.hpp"

namespace apram {
namespace {

// Per-lattice random value generators.
template <class L>
struct Gen;

template <>
struct Gen<MaxLattice<std::int64_t>> {
  static std::int64_t value(Rng& rng) { return rng.range(-1000, 1000); }
};

template <>
struct Gen<SetUnionLattice<int>> {
  static std::set<int> value(Rng& rng) {
    std::set<int> s;
    const auto k = rng.below(6);
    for (std::uint64_t i = 0; i < k; ++i) s.insert(static_cast<int>(rng.below(10)));
    return s;
  }
};

template <>
struct Gen<TaggedVectorLattice<int>> {
  // Tags within one cell are written by a single process, so in any real
  // execution equal tags imply equal values. The generator maintains that
  // invariant by deriving each value from (cell index, tag).
  static std::vector<TaggedCell<int>> value(Rng& rng) {
    std::vector<TaggedCell<int>> v(rng.below(5));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i].tag = rng.below(4);  // include tag 0 = bottom cells
      v[i].value = static_cast<int>(i * 1000 + v[i].tag);
    }
    return v;
  }
};

using Pair = PairLattice<MaxLattice<std::int64_t>, SetUnionLattice<int>>;
template <>
struct Gen<Pair> {
  static Pair::Value value(Rng& rng) {
    return {Gen<MaxLattice<std::int64_t>>::value(rng),
            Gen<SetUnionLattice<int>>::value(rng)};
  }
};

template <class L>
class LatticeLaws : public ::testing::Test {};

using LatticeTypes =
    ::testing::Types<MaxLattice<std::int64_t>, SetUnionLattice<int>,
                     TaggedVectorLattice<int>, Pair>;
TYPED_TEST_SUITE(LatticeLaws, LatticeTypes);

constexpr int kTrials = 500;

TYPED_TEST(LatticeLaws, JoinIsCommutative) {
  Rng rng(101);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    const auto b = Gen<TypeParam>::value(rng);
    EXPECT_TRUE(TypeParam::eq(TypeParam::join(a, b), TypeParam::join(b, a)));
  }
}

TYPED_TEST(LatticeLaws, JoinIsAssociative) {
  Rng rng(102);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    const auto b = Gen<TypeParam>::value(rng);
    const auto c = Gen<TypeParam>::value(rng);
    EXPECT_TRUE(TypeParam::eq(TypeParam::join(TypeParam::join(a, b), c),
                              TypeParam::join(a, TypeParam::join(b, c))));
  }
}

TYPED_TEST(LatticeLaws, JoinIsIdempotent) {
  Rng rng(103);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    EXPECT_TRUE(TypeParam::eq(TypeParam::join(a, a), a));
  }
}

TYPED_TEST(LatticeLaws, BottomIsIdentity) {
  Rng rng(104);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    EXPECT_TRUE(TypeParam::eq(TypeParam::join(TypeParam::bottom(), a), a));
    EXPECT_TRUE(TypeParam::leq(TypeParam::bottom(), a));
  }
}

TYPED_TEST(LatticeLaws, LeqConsistentWithJoin) {
  Rng rng(105);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    const auto b = Gen<TypeParam>::value(rng);
    // leq(a, b) <=> join(a, b) == b (up to lattice equality)
    EXPECT_EQ(TypeParam::leq(a, b), TypeParam::eq(TypeParam::join(a, b), b));
    // a and b are both <= join(a, b)
    const auto j = TypeParam::join(a, b);
    EXPECT_TRUE(TypeParam::leq(a, j));
    EXPECT_TRUE(TypeParam::leq(b, j));
  }
}

TYPED_TEST(LatticeLaws, LeqIsPartialOrder) {
  Rng rng(106);
  for (int t = 0; t < kTrials; ++t) {
    const auto a = Gen<TypeParam>::value(rng);
    const auto b = Gen<TypeParam>::value(rng);
    const auto c = Gen<TypeParam>::value(rng);
    EXPECT_TRUE(TypeParam::leq(a, a));  // reflexive
    if (TypeParam::leq(a, b) && TypeParam::leq(b, a)) {
      EXPECT_TRUE(TypeParam::eq(a, b));  // antisymmetric
    }
    if (TypeParam::leq(a, b) && TypeParam::leq(b, c)) {
      EXPECT_TRUE(TypeParam::leq(a, c));  // transitive
    }
  }
}

// TaggedVectorLattice-specific behaviour used by the snapshot object.

TEST(TaggedVector, SingletonHasOneLiveCell) {
  const auto v = TaggedVectorLattice<int>::singleton(4, 2, 7, 99);
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[i].tag, i == 2 ? 7u : 0u);
  }
  EXPECT_EQ(v[2].value, 99);
}

TEST(TaggedVector, JoinTakesPerCellMaxTag) {
  using L = TaggedVectorLattice<int>;
  auto a = L::singleton(3, 0, 5, 10);
  auto b = L::singleton(3, 0, 9, 20);
  b[1] = TaggedCell<int>{1, 30};
  const auto j = L::join(a, b);
  EXPECT_EQ(j[0].tag, 9u);
  EXPECT_EQ(j[0].value, 20);
  EXPECT_EQ(j[1].value, 30);
  EXPECT_EQ(j[2].tag, 0u);
}

TEST(TaggedVector, JoinWidensMixedSizes) {
  using L = TaggedVectorLattice<int>;
  const auto small = L::singleton(1, 0, 2, 5);
  const auto large = L::singleton(3, 2, 1, 7);
  const auto j = L::join(small, large);
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j[0].value, 5);
  EXPECT_EQ(j[2].value, 7);
}

TEST(MaxLatticeTest, JoinIsMax) {
  using L = MaxLattice<std::int64_t>;
  EXPECT_EQ(L::join(3, 9), 9);
  EXPECT_TRUE(L::leq(3, 9));
  EXPECT_FALSE(L::leq(9, 3));
}

TEST(SetUnionLatticeTest, JoinIsUnion) {
  using L = SetUnionLattice<int>;
  EXPECT_EQ(L::join({1, 2}, {2, 3}), (std::set<int>{1, 2, 3}));
  EXPECT_TRUE(L::leq({1}, {1, 2}));
  EXPECT_FALSE(L::leq({1, 4}, {1, 2}));
}

// ---------------------------------------------------------------------------
// In-place joins. Every join takes its left operand by value and updates it;
// the references below are the copying joins that build a fresh value.
// ---------------------------------------------------------------------------

using TV = TaggedVectorLattice<int>;
using VC = VectorClockLattice;
using SU = SetUnionLattice<int>;
using TVxVC = PairLattice<TV, VC>;

TV::Value copying_join(const TV::Value& a, const TV::Value& b) {
  TV::Value out(std::max(a.size(), b.size()));
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TV::Cell* best = nullptr;
    if (i < a.size()) best = &a[i];
    if (i < b.size() && (best == nullptr || b[i].tag > best->tag)) {
      best = &b[i];
    }
    if (best != nullptr) out[i] = *best;
  }
  return out;
}

VC::Value copying_join(const VC::Value& a, const VC::Value& b) {
  VC::Value out(std::max(a.size(), b.size()), 0);
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[i] = std::max(out[i], b[i]);
  return out;
}

SU::Value copying_join(const SU::Value& a, const SU::Value& b) {
  SU::Value out = a;
  out.insert(b.begin(), b.end());
  return out;
}

TVxVC::Value copying_join(const TVxVC::Value& a, const TVxVC::Value& b) {
  return {copying_join(a.first, b.first), copying_join(a.second, b.second)};
}

// Widths 0-6, tags 0-3 (so equal tags and ⊥ cells are common); the values
// are drawn independently of the tags, so a tie kept from the wrong side
// shows.
TV::Value random_tagged(Rng& rng) {
  TV::Value v(rng.below(7));
  for (TV::Cell& c : v) {
    c.tag = rng.below(4);
    c.value = static_cast<int>(rng.below(100));
  }
  return v;
}

VC::Value random_clock(Rng& rng) {
  VC::Value v(rng.below(7));
  for (std::uint64_t& c : v) c = rng.below(4);
  return v;
}

SU::Value random_set(Rng& rng) {
  SU::Value s;
  const std::uint64_t k = rng.below(7);
  for (std::uint64_t i = 0; i < k; ++i) {
    s.insert(static_cast<int>(rng.below(10)));
  }
  return s;
}

// L::join into an lvalue's copy and into an rvalue must both equal the
// copying join, cell by cell (each cell type's ==).
template <class L>
void expect_in_place_join_matches(const typename L::Value& a,
                                  const typename L::Value& b) {
  const typename L::Value want = copying_join(a, b);
  EXPECT_TRUE(L::join(a, b) == want);
  typename L::Value acc = a;
  EXPECT_TRUE(L::join(std::move(acc), b) == want);
}

TEST(Lattice, InPlaceJoinMatchesTheCopyingJoin) {
  Rng rng(25);
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE(trial);
    const TV::Value ta = random_tagged(rng);
    const TV::Value tb = random_tagged(rng);
    const VC::Value ca = random_clock(rng);
    const VC::Value cb = random_clock(rng);
    expect_in_place_join_matches<TV>(ta, tb);
    expect_in_place_join_matches<VC>(ca, cb);
    expect_in_place_join_matches<SU>(random_set(rng), random_set(rng));
    expect_in_place_join_matches<TVxVC>({ta, ca}, {tb, cb});
  }
}

}  // namespace
}  // namespace apram
