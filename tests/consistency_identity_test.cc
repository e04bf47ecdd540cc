#include "psc/consistency/identity_consistency.h"

#include "gtest/gtest.h"
#include "psc/source/measures.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(IdentityConsistencyTest, ConsistentCollectionYieldsValidWitness) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent);
  ASSERT_TRUE(report->witness.has_value());
  auto valid = collection.IsPossibleWorld(*report->witness);
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid) << report->witness->ToString();
}

TEST(IdentityConsistencyTest, ContradictoryExactSources) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->consistent);
  EXPECT_FALSE(report->witness.has_value());
}

TEST(IdentityConsistencyTest, SoundnessVsCompletenessTension) {
  // S1 claims full completeness on {0}: every world ⊆ {0}.
  // S2 claims full soundness on {1}: every world ⊇ {1}. Contradiction.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "0"),
                           MakeUnarySource("S2", {1}, "0", "1")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->consistent);
}

TEST(IdentityConsistencyTest, RelaxedBoundsRestoreConsistency) {
  // Same shape but S1 only claims completeness 1/2: {0,1} works.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1/2", "0"),
                           MakeUnarySource("S2", {1}, "0", "1")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent);
}

TEST(IdentityConsistencyTest, EmptyExtensionWithFullBoundsIsConsistent) {
  // v = ∅ is vacuously sound; full completeness forces φ(D) = ∅,
  // i.e. the empty world — which is fine.
  auto collection = MakeUnaryCollection({MakeUnarySource("S", {}, "1", "1")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->consistent);
  EXPECT_TRUE(report->witness->empty());
}

TEST(IdentityConsistencyTest, WitnessStaysInsideUnionOfExtensions) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {3, 4}, "1/2", "1/2"),
                           MakeUnarySource("S2", {4, 5}, "1/2", "1/2")});
  auto report = CheckIdentityConsistency(collection);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->witness.has_value());
  for (const Fact& fact : report->witness->AllFacts()) {
    const int64_t v = fact.tuple()[0].AsInt();
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
  }
}

TEST(IdentityConsistencyTest, BudgetExhaustionSurfaces) {
  // Many singleton groups with s = 0 explode the shape space; a tiny
  // budget must be reported, not silently mis-answered.
  std::vector<SourceDescriptor> sources;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(MakeUnarySource("S" + std::to_string(i),
                                      {2 * i, 2 * i + 1}, "1/2", "0"));
  }
  auto collection = MakeUnaryCollection(std::move(sources));
  auto report = CheckIdentityConsistency(collection,
                                         limits::Budget::WithNodeBudget(1));
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

TEST(IdentityConsistencyTest, MatchesSemanticDefinitionOnSweep) {
  // For a parameterized family, consistency flips exactly where the
  // semantics say: v1 = {0..k-1} fully sound, v2 = {0} fully complete
  // → consistent iff k ≤ 1... plus the soundness threshold scaling.
  for (int k = 1; k <= 4; ++k) {
    std::vector<int64_t> facts;
    for (int i = 0; i < k; ++i) facts.push_back(i);
    auto collection =
        MakeUnaryCollection({MakeUnarySource("S1", facts, "0", "1"),
                             MakeUnarySource("S2", {0}, "1", "0")});
    auto report = CheckIdentityConsistency(collection);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->consistent, k <= 1) << "k=" << k;
  }
}

}  // namespace
}  // namespace psc
