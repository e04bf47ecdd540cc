#include "psc/util/random.h"

#include <set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace psc {
namespace {

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t value = rng.UniformInt(-5, 5);
    EXPECT_GE(value, -5);
    EXPECT_LE(value, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.UniformDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(5);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int64_t> sample = rng.SampleWithoutReplacement(20, 7);
    EXPECT_EQ(sample.size(), 7u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    std::set<int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 7u);
    for (const int64_t value : sample) {
      EXPECT_GE(value, 0);
      EXPECT_LT(value, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullAndEmpty) {
  Rng rng(7);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  const std::vector<int64_t> all = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(all, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementIsUnbiasedish) {
  // Every element of {0..9} should be picked roughly k/n of the time.
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    for (const int64_t v : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[static_cast<size_t>(v)];
    }
  }
  for (const int count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.3, 0.05);
  }
}

TEST(RngTest, SampleWithoutReplacementMatchesSetFloyd) {
  // Floyd's algorithm over a std::set, as seeded generators and world
  // draws have always consumed it: the same picks from the same stream,
  // leaving the stream at the same place.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Rng reference(seed);
    for (const auto& [n, k] : std::vector<std::pair<int64_t, int64_t>>{
             {1, 1}, {10, 3}, {10, 10}, {100, 7}, {100, 93}, {1000, 500}}) {
      std::set<int64_t> chosen;
      for (int64_t j = n - k; j < n; ++j) {
        const int64_t t = reference.UniformInt(0, j);
        if (!chosen.insert(t).second) chosen.insert(j);
      }
      EXPECT_EQ(rng.SampleWithoutReplacement(n, k),
                std::vector<int64_t>(chosen.begin(), chosen.end()))
          << "seed " << seed << " n " << n << " k " << k;
    }
    EXPECT_EQ(rng.engine()(), reference.engine()());
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  EXPECT_TRUE(std::is_permutation(items.begin(), items.end(),
                                  shuffled.begin()));
}

}  // namespace
}  // namespace psc
