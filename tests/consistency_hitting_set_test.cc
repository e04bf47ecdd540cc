// Theorem 3.2 and Lemma 3.3: the reduction chain
// HITTING SET → HS* → CONSISTENCY preserves solvability, and the witness
// worlds map back to hitting sets.

#include "psc/consistency/hitting_set.h"

#include "gtest/gtest.h"
#include "psc/consistency/identity_consistency.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

HittingSetInstance Instance(int64_t universe, int64_t budget,
                            std::vector<std::vector<int64_t>> subsets) {
  HittingSetInstance instance;
  instance.universe_size = universe;
  instance.budget = budget;
  instance.subsets = std::move(subsets);
  return instance;
}

bool Hits(const std::vector<int64_t>& hitting_set,
          const HittingSetInstance& instance) {
  for (const auto& subset : instance.subsets) {
    bool hit = false;
    for (const int64_t e : subset) {
      if (std::find(hitting_set.begin(), hitting_set.end(), e) !=
          hitting_set.end()) {
        hit = true;
        break;
      }
    }
    if (!hit) return false;
  }
  return static_cast<int64_t>(hitting_set.size()) <= instance.budget;
}

TEST(HittingSetTest, ValidationCatchesBadInstances) {
  EXPECT_FALSE(Instance(3, 1, {{}}).Validate().ok());          // empty subset
  EXPECT_FALSE(Instance(3, 1, {{5}}).Validate().ok());         // out of range
  EXPECT_FALSE(Instance(3, 1, {{0, 0}}).Validate().ok());      // duplicate
  EXPECT_FALSE(Instance(3, -1, {{0}}).Validate().ok());        // bad budget
  EXPECT_TRUE(Instance(3, 1, {{0, 2}}).Validate().ok());
}

TEST(HittingSetTest, IsHsStarChecksLastSingleton) {
  EXPECT_TRUE(Instance(3, 1, {{0, 1}, {2}}).IsHsStar());
  EXPECT_FALSE(Instance(3, 1, {{2}, {0, 1}}).IsHsStar());
  EXPECT_FALSE(Instance(3, 1, {}).IsHsStar());
}

TEST(BranchAndBoundTest, SolvesSmallInstances) {
  // Two disjoint pairs need 2 elements.
  auto two = SolveHittingSet(Instance(4, 2, {{0, 1}, {2, 3}}));
  ASSERT_TRUE(two.ok());
  EXPECT_TRUE(two->solvable);
  EXPECT_TRUE(Hits(two->hitting_set, Instance(4, 2, {{0, 1}, {2, 3}})));

  auto one = SolveHittingSet(Instance(4, 1, {{0, 1}, {2, 3}}));
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(one->solvable);

  // A shared element lets budget 1 suffice.
  auto shared = SolveHittingSet(Instance(4, 1, {{0, 1}, {1, 2}}));
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(shared->solvable);
  EXPECT_EQ(shared->hitting_set, std::vector<int64_t>{1});
}

TEST(BranchAndBoundTest, NoSubsetsIsTriviallySolvable) {
  auto result = SolveHittingSet(Instance(3, 0, {}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->solvable);
  EXPECT_TRUE(result->hitting_set.empty());
}

TEST(BranchAndBoundTest, NodeBudgetEnforced) {
  Rng rng(3);
  const HittingSetInstance instance =
      MakeRandomHittingSet(20, 30, 4, 6, &rng);
  EXPECT_EQ(SolveHittingSet(instance, limits::Budget::WithNodeBudget(2))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ReductionTest, HsToHsStarAddsSingleton) {
  const HittingSetInstance original = Instance(3, 1, {{0, 1}});
  const HittingSetInstance star = ReduceHsToHsStar(original);
  EXPECT_EQ(star.universe_size, 4);
  EXPECT_EQ(star.budget, 2);
  ASSERT_EQ(star.subsets.size(), 2u);
  EXPECT_EQ(star.subsets.back(), std::vector<int64_t>{3});
  EXPECT_TRUE(star.IsHsStar());
}

TEST(ReductionTest, HsStarToConsistencyShape) {
  const HittingSetInstance star = Instance(3, 2, {{0, 1}, {2}});
  auto collection = ReduceHsStarToConsistency(star);
  ASSERT_TRUE(collection.ok()) << collection.status().ToString();
  ASSERT_EQ(collection->size(), 2u);
  EXPECT_TRUE(collection->AllIdentityViews());
  // cᵢ = 1/K, sᵢ = 1/|Aᵢ| per the paper's construction.
  EXPECT_EQ(collection->source(0).completeness_bound(), Rational(1, 2));
  EXPECT_EQ(collection->source(0).soundness_bound(), Rational(1, 2));
  EXPECT_EQ(collection->source(1).soundness_bound(), Rational::One());
  EXPECT_EQ(collection->source(0).extension_size(), 2u);
}

TEST(ReductionTest, RequiresHsStarPromise) {
  EXPECT_EQ(ReduceHsStarToConsistency(Instance(3, 1, {{0, 1}}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ReductionTest, EndToEndAgreesWithBranchAndBound) {
  const std::vector<HittingSetInstance> instances = {
      Instance(4, 2, {{0, 1}, {2, 3}}),
      Instance(4, 1, {{0, 1}, {2, 3}}),
      Instance(4, 1, {{0, 1}, {1, 2}}),
      Instance(5, 2, {{0, 1}, {1, 2}, {3, 4}, {0, 4}}),
      Instance(5, 1, {{0, 1}, {1, 2}, {3, 4}, {0, 4}}),
      Instance(3, 0, {}),
      Instance(6, 3, {{0}, {1}, {2}}),
      Instance(6, 2, {{0}, {1}, {2}}),
  };
  for (const HittingSetInstance& instance : instances) {
    auto direct = SolveHittingSet(instance);
    ASSERT_TRUE(direct.ok());
    auto via = SolveHittingSetViaConsistency(instance);
    ASSERT_TRUE(via.ok()) << via.status().ToString() << "\n"
                          << instance.ToString();
    EXPECT_EQ(direct->solvable, via->solvable) << instance.ToString();
    if (via->solvable) {
      EXPECT_TRUE(Hits(via->hitting_set, instance))
          << instance.ToString() << " got set of size "
          << via->hitting_set.size();
    }
  }
}

TEST(ReductionTest, RandomizedAgreement) {
  Rng rng(20010701);
  for (int trial = 0; trial < 30; ++trial) {
    const HittingSetInstance instance = MakeRandomHittingSet(
        /*universe_size=*/rng.UniformInt(3, 6),
        /*num_subsets=*/rng.UniformInt(1, 5),
        /*max_subset_size=*/3,
        /*budget=*/rng.UniformInt(0, 3), &rng);
    auto direct = SolveHittingSet(instance);
    ASSERT_TRUE(direct.ok());
    auto via = SolveHittingSetViaConsistency(instance);
    ASSERT_TRUE(via.ok()) << instance.ToString();
    EXPECT_EQ(direct->solvable, via->solvable) << instance.ToString();
    if (via->solvable) {
      EXPECT_TRUE(Hits(via->hitting_set, instance));
    }
  }
}

TEST(ReductionTest, CorollaryFragmentIsIdentityOnly) {
  // Corollary 3.4: the reduction lands entirely inside the identity-view
  // fragment over one relation — verify the checker accepts it natively.
  const HittingSetInstance star = Instance(4, 2, {{0, 1, 2}, {3}});
  auto collection = ReduceHsStarToConsistency(star);
  ASSERT_TRUE(collection.ok());
  auto report = CheckIdentityConsistency(*collection);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent);
}

}  // namespace
}  // namespace psc
