#include "psc/util/combinatorics.h"

#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"

namespace psc {
namespace {

// The suite keeps its name; it tests the binomial rows `BinomialRow`
// builds.
TEST(BinomialTableTest, SmallValues) {
  EXPECT_EQ(BinomialRow(0)[0].ToUint64(), 1u);
  const std::vector<BigInt> five = BinomialRow(5);
  ASSERT_EQ(five.size(), 6u);
  EXPECT_EQ(five[0].ToUint64(), 1u);
  EXPECT_EQ(five[5].ToUint64(), 1u);
  EXPECT_EQ(five[2].ToUint64(), 10u);
  EXPECT_EQ(BinomialRow(10)[3].ToUint64(), 120u);
}

TEST(BinomialTableTest, PascalIdentityHoldsForLargeRows) {
  for (int64_t n = 1; n <= 80; n += 13) {
    const std::vector<BigInt> row = BinomialRow(n);
    const std::vector<BigInt> above = BinomialRow(n - 1);
    for (size_t k = 1; k < row.size() - 1; k += 7) {
      EXPECT_EQ(row[k], above[k - 1] + above[k]) << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialTableTest, RowSumsArePowersOfTwo) {
  for (int64_t n = 0; n <= 40; n += 8) {
    BigInt sum;
    for (const BigInt& entry : BinomialRow(n)) sum += entry;
    BigInt expected(1);
    for (int64_t i = 0; i < n; ++i) expected = expected * BigInt(2);
    EXPECT_EQ(sum, expected) << "n=" << n;
  }
}

TEST(BinomialTableTest, CentralBinomialBeyond64Bits) {
  // C(100, 50) is a well-known 30-digit constant.
  EXPECT_EQ(BinomialRow(100)[50].ToString(),
            "100891344545564193334812497256");
}

TEST(SubsetEnumerationTest, FixedSizeSubsetsAreExhaustiveAndSorted) {
  std::set<std::vector<int64_t>> seen;
  ForEachSubsetOfSize(5, 3, [&](const std::vector<int64_t>& subset) {
    EXPECT_EQ(subset.size(), 3u);
    EXPECT_TRUE(std::is_sorted(subset.begin(), subset.end()));
    seen.insert(subset);
    return true;
  });
  EXPECT_EQ(seen.size(), 10u);  // C(5,3)
}

TEST(SubsetEnumerationTest, EdgeSizes) {
  int count = 0;
  ForEachSubsetOfSize(4, 0, [&](const std::vector<int64_t>& subset) {
    EXPECT_TRUE(subset.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  count = 0;
  ForEachSubsetOfSize(4, 4, [&](const std::vector<int64_t>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  count = 0;
  ForEachSubsetOfSize(4, 5, [&](const std::vector<int64_t>&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST(SubsetEnumerationTest, EarlyStopPropagates) {
  int count = 0;
  const bool completed =
      ForEachSubsetOfSize(6, 2, [&](const std::vector<int64_t>&) {
        return ++count < 4;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 4);
}

TEST(SubsetEnumerationTest, NextSubsetWrapsToTheFirst) {
  // The world enumerator's odometer carries on the wrap: after
  // C(5, 2) - 1 advances, the last subset {3, 4} wraps to {0, 1} and the
  // step returns false.
  std::vector<int64_t> subset = {0, 1};
  int advances = 0;
  while (NextSubsetOfSize(5, &subset)) ++advances;
  EXPECT_EQ(advances, 9);
  EXPECT_EQ(subset, (std::vector<int64_t>{0, 1}));
  std::vector<int64_t> empty;
  EXPECT_FALSE(NextSubsetOfSize(3, &empty));
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace psc
