#include "psc/counting/consensus.h"

#include <map>

#include "gtest/gtest.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/source/measures.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

/// Oracle: average measured soundness/completeness over the brute-forced
/// world set.
struct OracleConsensus {
  std::vector<double> soundness;
  std::vector<double> completeness;
};

OracleConsensus Oracle(const SourceCollection& collection,
                       const std::vector<Value>& domain) {
  BruteForceWorldEnumerator enumerator(&collection, domain);
  OracleConsensus oracle;
  oracle.soundness.assign(collection.size(), 0.0);
  oracle.completeness.assign(collection.size(), 0.0);
  uint64_t worlds = 0;
  auto status = enumerator.ForEachPossibleWorld([&](const Database& world) {
    ++worlds;
    for (size_t i = 0; i < collection.size(); ++i) {
      auto measures = ComputeMeasures(collection.source(i), world);
      EXPECT_TRUE(measures.ok());
      oracle.soundness[i] += measures->soundness.ToDouble();
      oracle.completeness[i] += measures->completeness.ToDouble();
    }
    return true;
  });
  EXPECT_TRUE(status.ok());
  EXPECT_GT(worlds, 0u);
  for (size_t i = 0; i < collection.size(); ++i) {
    oracle.soundness[i] /= static_cast<double>(worlds);
    oracle.completeness[i] /= static_cast<double>(worlds);
  }
  return oracle;
}

void ExpectConsensusMatchesOracle(const SourceCollection& collection,
                                  const std::vector<Value>& domain) {
  auto instance = IdentityInstance::Create(collection, domain);
  ASSERT_TRUE(instance.ok());
  auto consensus = ComputeSourceConsensus(*instance);
  ASSERT_TRUE(consensus.ok()) << consensus.status().ToString();
  const OracleConsensus oracle = Oracle(collection, domain);
  ASSERT_EQ(consensus->size(), collection.size());
  for (size_t i = 0; i < collection.size(); ++i) {
    EXPECT_NEAR((*consensus)[i].expected_soundness, oracle.soundness[i],
                1e-9)
        << collection.ToString();
    EXPECT_NEAR((*consensus)[i].expected_completeness,
                oracle.completeness[i], 1e-9)
        << collection.ToString();
  }
}

TEST(ConsensusTest, MatchesOracleOnOverlappingSources) {
  ExpectConsensusMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")}),
      IntDomain(5));
}

TEST(ConsensusTest, MatchesOracleWithZeroBounds) {
  ExpectConsensusMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      IntDomain(4));
}

TEST(ConsensusTest, ExactSourceHasExpectedSoundnessOne) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("Exact", {0, 1}, "1", "1"),
                           MakeUnarySource("Loose", {1, 2}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(4));
  ASSERT_TRUE(instance.ok());
  auto consensus = ComputeSourceConsensus(*instance);
  ASSERT_TRUE(consensus.ok());
  EXPECT_DOUBLE_EQ((*consensus)[0].expected_soundness, 1.0);
  EXPECT_DOUBLE_EQ((*consensus)[0].expected_completeness, 1.0);
  EXPECT_DOUBLE_EQ((*consensus)[0].soundness_slack, 0.0);
  // The exact source pins D = {0,1} (soundness forces ⊇, completeness
  // forces ⊆), so the loose source's soundness is exactly |{1}|/2.
  EXPECT_DOUBLE_EQ((*consensus)[1].expected_soundness, 0.5);
  EXPECT_DOUBLE_EQ((*consensus)[1].expected_completeness, 0.5);
}

TEST(ConsensusTest, CorroborationRaisesExpectedSoundness) {
  // A fully sound anchor vouches for fact 1. "Corroborated" shares that
  // fact; "Loner" claims two facts nobody backs. With otherwise zero
  // bounds, poss(S) = supersets of {1}: conf(1) = 1, every other fact 1/2,
  // so E[s_Corroborated] = 3/4 > E[s_Loner] = 1/2.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("Anchor", {1}, "0", "1"),
                           MakeUnarySource("Corroborated", {0, 1}, "0", "0"),
                           MakeUnarySource("Loner", {2, 3}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  auto consensus = ComputeSourceConsensus(*instance);
  ASSERT_TRUE(consensus.ok());
  EXPECT_NEAR((*consensus)[1].expected_soundness, 0.75, 1e-12);
  EXPECT_NEAR((*consensus)[2].expected_soundness, 0.5, 1e-12);
  EXPECT_GT((*consensus)[1].soundness_slack,
            (*consensus)[2].soundness_slack);
}

TEST(ConsensusTest, InconsistentCollectionIsAnError) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(ComputeSourceConsensus(*instance).status().code(),
            StatusCode::kInconsistent);
}

TEST(ConsensusTest, EmptyExtensionIsVacuouslySound) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("Empty", {}, "0", "1"),
                           MakeUnarySource("Other", {0}, "0", "1")});
  auto instance = IdentityInstance::Create(collection, IntDomain(2));
  ASSERT_TRUE(instance.ok());
  auto consensus = ComputeSourceConsensus(*instance);
  ASSERT_TRUE(consensus.ok());
  EXPECT_DOUBLE_EQ((*consensus)[0].expected_soundness, 1.0);
}

TEST(ConsensusTest, BudgetOfOneNodeIsExhausted) {
  // Example 5.1 over its extensions: the shape walk expands more nodes
  // than the root.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(ComputeSourceConsensus(*instance).ok());
  const limits::Budget budget = limits::Budget::WithNodeBudget(1);
  EXPECT_EQ(ComputeSourceConsensus(*instance, budget).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.reason(), limits::StopReason::kNodeBudget);
}

TEST(ConsensusTest, BudgetWithCancelledTokenStopsBeforeTheWalk) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  limits::CancelToken token;
  token.Cancel();
  limits::BudgetOptions options;
  options.cancel = token;
  const limits::Budget budget(options);
  EXPECT_EQ(ComputeSourceConsensus(*instance, budget).status().code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(budget.reason(), limits::StopReason::kCancelled);
  EXPECT_EQ(budget.nodes_charged(), 1u);
}

}  // namespace
}  // namespace psc
