#include "psc/counting/linear_system.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

LinearSystem BuildSystem(const SourceCollection& collection, int64_t domain) {
  auto instance = IdentityInstance::Create(collection, IntDomain(domain));
  EXPECT_TRUE(instance.ok());
  auto system = LinearSystem::FromIdentityInstance(*instance);
  EXPECT_TRUE(system.ok());
  return std::move(system).ValueOrDie();
}

TEST(LinearSystemTest, TwoRowsPerSource) {
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")}),
      4);
  EXPECT_EQ(system.num_variables(), 4u);
  EXPECT_EQ(system.rows().size(), 4u);
}

TEST(LinearSystemTest, CoefficientsMatchPaperForm) {
  // One source, v = {0}, c = 1/2, universe {0,1}.
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), 2);
  // Completeness row: (den−num)·x₀ − num·x₁ ≥ 0 → 1·x₀ − 1·x₁ ≥ 0.
  const auto& completeness = system.rows()[0];
  EXPECT_EQ(completeness.coefficients, (std::vector<int64_t>{1, -1}));
  EXPECT_EQ(completeness.rhs, 0);
  // Soundness row: x₀ ≥ 1.
  const auto& soundness = system.rows()[1];
  EXPECT_EQ(soundness.coefficients, (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(soundness.rhs, 1);
}

TEST(LinearSystemTest, IsSatisfiedByEvaluatesMask) {
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), 2);
  EXPECT_FALSE(system.IsSatisfiedBy(0b00));  // soundness fails
  EXPECT_TRUE(system.IsSatisfiedBy(0b01));   // {0}
  EXPECT_TRUE(system.IsSatisfiedBy(0b11));   // {0,1}: completeness 1/2 ok
  EXPECT_FALSE(system.IsSatisfiedBy(0b10));  // {1}: soundness fails
}

TEST(LinearSystemTest, BruteForceCountAndConditionalCounts) {
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), 2);
  auto total = system.CountSolutionsBruteForce();
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total->ToUint64(), 2u);  // {0} and {0,1}
  auto with0 = system.CountSolutionsWithFixed(0, true);
  ASSERT_TRUE(with0.ok());
  EXPECT_EQ(with0->ToUint64(), 2u);
  auto without0 = system.CountSolutionsWithFixed(0, false);
  ASSERT_TRUE(without0.ok());
  EXPECT_TRUE(without0->IsZero());
  auto with1 = system.CountSolutionsWithFixed(1, true);
  ASSERT_TRUE(with1.ok());
  EXPECT_EQ(with1->ToUint64(), 1u);
}

TEST(LinearSystemTest, VariableLimitEnforced) {
  // One variable past kMaxVariables: both counts refuse before the first
  // assignment.
  const int64_t n = static_cast<int64_t>(LinearSystem::kMaxVariables) + 1;
  const LinearSystem wide = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), n);
  ASSERT_EQ(wide.num_variables(), 31u);
  EXPECT_EQ(wide.CountSolutionsBruteForce().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(wide.CountSolutionsWithFixed(0, true).status().code(),
            StatusCode::kResourceExhausted);
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), 2);
  EXPECT_EQ(system.CountSolutionsWithFixed(5, true).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearSystemTest, ToStringShowsRowsAndLabels) {
  const LinearSystem system = BuildSystem(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/2", "1")}), 2);
  const std::string text = system.ToString();
  EXPECT_NE(text.find("S:completeness>=1/2"), std::string::npos) << text;
  EXPECT_NE(text.find("S:soundness>=1"), std::string::npos) << text;
  EXPECT_NE(text.find(">= 1"), std::string::npos) << text;
}

}  // namespace
}  // namespace psc
