#include "util/bitset.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace coursenav {
namespace {

TEST(DynamicBitsetTest, StartsEmpty) {
  DynamicBitset b(40);
  EXPECT_EQ(b.universe_size(), 40);
  EXPECT_EQ(b.count(), 0);
  EXPECT_TRUE(b.empty());
  for (int i = 0; i < 40; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitsetTest, SetResetTest) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_EQ(b.count(), 4);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3);
}

TEST(DynamicBitsetTest, FromIndicesAndToIndicesRoundTrip) {
  std::vector<int> ids = {3, 7, 21, 37};
  DynamicBitset b = DynamicBitset::FromIndices(38, ids);
  EXPECT_EQ(b.ToIndices(), ids);
}

TEST(DynamicBitsetTest, ClearEmptiesTheSet) {
  DynamicBitset b = DynamicBitset::FromIndices(38, {1, 2, 3});
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.universe_size(), 38);
}

TEST(DynamicBitsetTest, UnionIntersectionSubtract) {
  DynamicBitset a = DynamicBitset::FromIndices(10, {1, 2, 3});
  DynamicBitset b = DynamicBitset::FromIndices(10, {3, 4});
  EXPECT_EQ((a | b).ToIndices(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a & b).ToIndices(), (std::vector<int>{3}));
  DynamicBitset c = a;
  c.Subtract(b);
  EXPECT_EQ(c.ToIndices(), (std::vector<int>{1, 2}));
}

TEST(DynamicBitsetTest, SubsetAndIntersects) {
  DynamicBitset small = DynamicBitset::FromIndices(10, {1, 2});
  DynamicBitset big = DynamicBitset::FromIndices(10, {1, 2, 3});
  DynamicBitset other = DynamicBitset::FromIndices(10, {4});
  EXPECT_TRUE(small.IsSubsetOf(big));
  EXPECT_FALSE(big.IsSubsetOf(small));
  EXPECT_TRUE(small.IsSubsetOf(small));
  EXPECT_TRUE(small.Intersects(big));
  EXPECT_FALSE(small.Intersects(other));
  DynamicBitset empty(10);
  EXPECT_TRUE(empty.IsSubsetOf(small));
  EXPECT_FALSE(empty.Intersects(small));
}

TEST(DynamicBitsetTest, EqualityRequiresSameUniverse) {
  DynamicBitset a = DynamicBitset::FromIndices(10, {1});
  DynamicBitset b = DynamicBitset::FromIndices(11, {1});
  DynamicBitset c = DynamicBitset::FromIndices(10, {1});
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == c);
}

TEST(DynamicBitsetTest, ForEachVisitsAscending) {
  DynamicBitset b = DynamicBitset::FromIndices(130, {0, 64, 127, 129});
  std::vector<int> seen;
  b.ForEach([&](int id) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<int>{0, 64, 127, 129}));
}

TEST(DynamicBitsetTest, HashDiffersForDifferentSets) {
  DynamicBitset a = DynamicBitset::FromIndices(38, {1, 2});
  DynamicBitset b = DynamicBitset::FromIndices(38, {1, 3});
  DynamicBitset c = DynamicBitset::FromIndices(38, {1, 2});
  EXPECT_EQ(a.Hash(), c.Hash());
  EXPECT_NE(a.Hash(), b.Hash());
}

TEST(DynamicBitsetTest, ToStringRendersSortedIds) {
  DynamicBitset b = DynamicBitset::FromIndices(10, {7, 1});
  EXPECT_EQ(b.ToString(), "{1, 7}");
  EXPECT_EQ(DynamicBitset(5).ToString(), "{}");
}

TEST(DynamicBitsetTest, InlineStorageReportsNoHeap) {
  // Up to 128 elements the words live inline.
  EXPECT_EQ(DynamicBitset(38).MemoryUsage(), 0u);
  EXPECT_EQ(DynamicBitset(128).MemoryUsage(), 0u);
  EXPECT_GT(DynamicBitset(129).MemoryUsage(), 0u);
}

TEST(DynamicBitsetTest, MoveLeavesValueIntact) {
  DynamicBitset a = DynamicBitset::FromIndices(200, {5, 150});
  DynamicBitset b = std::move(a);
  EXPECT_EQ(b.ToIndices(), (std::vector<int>{5, 150}));
}

TEST(DynamicBitsetTest, CopyAssignAcrossStorageKinds) {
  // Same-size heap assignment reuses the destination's words in place.
  DynamicBitset heap_a = DynamicBitset::FromIndices(200, {5, 150});
  DynamicBitset heap_b = DynamicBitset::FromIndices(200, {7, 199});
  heap_b = heap_a;
  EXPECT_EQ(heap_b.ToIndices(), (std::vector<int>{5, 150}));
  // Mutating the copy must not alias the source.
  heap_b.set(60);
  EXPECT_EQ(heap_a.ToIndices(), (std::vector<int>{5, 150}));

  // Inline -> heap and heap -> inline transitions.
  DynamicBitset small = DynamicBitset::FromIndices(38, {3});
  small = heap_a;
  EXPECT_EQ(small.ToIndices(), (std::vector<int>{5, 150}));
  DynamicBitset big = DynamicBitset::FromIndices(200, {150});
  big = DynamicBitset::FromIndices(38, {3});
  EXPECT_EQ(big.universe_size(), 38);
  EXPECT_EQ(big.ToIndices(), (std::vector<int>{3}));

  // Same-size inline assignment.
  DynamicBitset in_a = DynamicBitset::FromIndices(100, {0, 99});
  DynamicBitset in_b = DynamicBitset::FromIndices(100, {50});
  in_b = in_a;
  EXPECT_EQ(in_b.ToIndices(), (std::vector<int>{0, 99}));

  // Self-assignment is a no-op.
  DynamicBitset& self = heap_a;
  heap_a = self;
  EXPECT_EQ(heap_a.ToIndices(), (std::vector<int>{5, 150}));
}

TEST(DynamicBitsetTest, IsTwentyFourBytes) {
  // An 8-byte header (universe, word count), then two inline words or one
  // heap pointer: learning-graph nodes hold three of these.
  static_assert(sizeof(DynamicBitset) == 24);
  EXPECT_EQ(sizeof(DynamicBitset), 24u);
}

TEST(DynamicBitsetTest, MovedFromSetsAreEmptyAndReusable) {
  for (int universe : {38, 128, 129, 200}) {
    SCOPED_TRACE("universe " + std::to_string(universe));
    const std::vector<int> members = {5, universe - 1};
    DynamicBitset source = DynamicBitset::FromIndices(universe, members);
    DynamicBitset moved = std::move(source);
    EXPECT_EQ(moved.ToIndices(), members);
    EXPECT_EQ(source.universe_size(), 0);
    EXPECT_EQ(source.word_count(), 0u);
    EXPECT_TRUE(source.empty());
    EXPECT_EQ(source.MemoryUsage(), 0u);

    // Regression: a moved-from heap set used to keep its shape but not its
    // words, so a same-shape copy-assign into it wrote through null.
    const DynamicBitset same_shape = DynamicBitset::FromIndices(universe, {1});
    source = same_shape;
    EXPECT_EQ(source, same_shape);
    source.set(2);
    EXPECT_FALSE(same_shape.test(2));

    // Move-assigning into and out of moved-from sets.
    DynamicBitset other = std::move(moved);
    moved = std::move(other);
    EXPECT_EQ(moved.ToIndices(), members);
    EXPECT_EQ(other.universe_size(), 0);
    other = std::move(source);
    EXPECT_EQ(other.ToIndices(), (std::vector<int>{1, 2}));
  }
}

TEST(DynamicBitsetTest, CopyMoveAndSelfAssignAcrossInlineAndHeap) {
  const DynamicBitset inline_set = DynamicBitset::FromIndices(100, {0, 99});
  const DynamicBitset heap_set = DynamicBitset::FromIndices(300, {0, 150, 299});

  DynamicBitset copied = inline_set;
  copied = heap_set;  // inline -> heap
  EXPECT_EQ(copied, heap_set);
  EXPECT_GT(copied.MemoryUsage(), 0u);
  copied = inline_set;  // heap -> inline
  EXPECT_EQ(copied, inline_set);
  EXPECT_EQ(copied.MemoryUsage(), 0u);

  DynamicBitset moved = heap_set;
  moved = DynamicBitset(inline_set);  // heap -> inline, frees the words
  EXPECT_EQ(moved, inline_set);
  EXPECT_EQ(moved.MemoryUsage(), 0u);
  moved = DynamicBitset(heap_set);  // inline -> heap, takes the pointer
  EXPECT_EQ(moved, heap_set);
  DynamicBitset constructed(std::move(moved));
  EXPECT_EQ(constructed, heap_set);

  // Self copy- and move-assignment keep the value, inline and on the heap.
  for (const DynamicBitset& value : {inline_set, heap_set}) {
    DynamicBitset set = value;
    DynamicBitset& alias = set;
    set = alias;
    EXPECT_EQ(set, value);
    set = std::move(alias);
    EXPECT_EQ(set, value);
  }

  // A copy never shares its source's heap words.
  DynamicBitset copy = heap_set;
  copy.set(1);
  EXPECT_FALSE(heap_set.test(1));
}

TEST(DynamicBitsetTest, WordAccessAndAssignWords) {
  for (int universe : {38, 130, 200}) {
    DynamicBitset a = DynamicBitset::FromIndices(universe, {1, 36});
    size_t words = a.word_count();
    EXPECT_EQ(words, (static_cast<size_t>(universe) + 63) / 64);
    EXPECT_EQ(a.word_data()[0], (uint64_t{1} << 1) | (uint64_t{1} << 36));

    DynamicBitset b(universe);
    b.AssignWords(a.word_data());
    EXPECT_EQ(b, a);

    DynamicBitset c = DynamicBitset::FromWords(universe, a.word_data());
    EXPECT_EQ(c, a);
  }
}

/// Property sweep: set algebra agrees with std::set reference across
/// universe sizes straddling the word and inline-storage boundaries.
class BitsetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BitsetPropertyTest, MatchesReferenceSetSemantics) {
  const int n = GetParam();
  Random rng(static_cast<uint64_t>(n) * 977);
  for (int iter = 0; iter < 50; ++iter) {
    std::set<int> ref_a, ref_b;
    DynamicBitset a(n), b(n);
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.3)) {
        a.set(i);
        ref_a.insert(i);
      }
      if (rng.Bernoulli(0.3)) {
        b.set(i);
        ref_b.insert(i);
      }
    }
    // count / test
    EXPECT_EQ(a.count(), static_cast<int>(ref_a.size()));
    // union
    std::set<int> ref_union = ref_a;
    ref_union.insert(ref_b.begin(), ref_b.end());
    EXPECT_EQ((a | b).ToIndices(),
              std::vector<int>(ref_union.begin(), ref_union.end()));
    // intersection
    std::set<int> ref_inter;
    for (int v : ref_a) {
      if (ref_b.count(v)) ref_inter.insert(v);
    }
    EXPECT_EQ((a & b).ToIndices(),
              std::vector<int>(ref_inter.begin(), ref_inter.end()));
    // difference
    DynamicBitset diff = a;
    diff.Subtract(b);
    std::set<int> ref_diff;
    for (int v : ref_a) {
      if (!ref_b.count(v)) ref_diff.insert(v);
    }
    EXPECT_EQ(diff.ToIndices(),
              std::vector<int>(ref_diff.begin(), ref_diff.end()));
    // subset / intersects
    EXPECT_EQ(a.IsSubsetOf(b),
              std::includes(ref_b.begin(), ref_b.end(), ref_a.begin(),
                            ref_a.end()));
    EXPECT_EQ(a.Intersects(b), !ref_inter.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(UniverseSizes, BitsetPropertyTest,
                         ::testing::Values(1, 7, 38, 63, 64, 65, 127, 128,
                                           129, 200));

}  // namespace
}  // namespace coursenav
