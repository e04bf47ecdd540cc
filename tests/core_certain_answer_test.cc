#include "psc/core/certain_answer.h"

#include "gtest/gtest.h"
#include "psc/core/query_system.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::U;

TEST(CertainAnswerTest, ExactSourceMakesFactsCertain) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1/2", "1")});
  auto bound = CertainAnswerLowerBound(collection, AlgebraExpr::Base("R", 1));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->certain, (Relation{U(0), U(1)}));
  EXPECT_FALSE(bound->truncated);
}

TEST(CertainAnswerTest, PartialSoundnessYieldsNoCertainFacts) {
  // s = 1/2 on two facts: either one alone may be the sound part.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1/2", "1/2")});
  auto bound = CertainAnswerLowerBound(collection, AlgebraExpr::Base("R", 1));
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->certain.empty());
}

TEST(CertainAnswerTest, OverlapForcesSharedFact) {
  // Both sources fully sound; the shared fact must appear, as must all.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "0", "1"),
                           MakeUnarySource("S2", {1, 2}, "0", "1")});
  auto bound = CertainAnswerLowerBound(collection, AlgebraExpr::Base("R", 1));
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->certain, (Relation{U(0), U(1), U(2)}));
}

TEST(CertainAnswerTest, SoundOnRandomIdentityCollections) {
  // Randomized: the template bound must be a subset of the exact certain
  // answer on every draw.
  Rng rng(31415);
  RandomIdentityConfig config;
  config.num_sources = 2;
  config.universe_size = 3;
  config.min_extension = 1;
  config.max_extension = 3;
  for (int trial = 0; trial < 25; ++trial) {
    auto collection = MakeRandomIdentityCollection(config, &rng);
    ASSERT_TRUE(collection.ok());
    auto system = QuerySystem::Create(*collection);
    ASSERT_TRUE(system.ok());
    auto plan = AlgebraExpr::Base("R", 1);
    auto exact = system->AnswerExact(plan, IntDomain(4));
    auto bound = CertainAnswerLowerBound(*collection, plan);
    if (!exact.ok()) {
      // Inconsistent draw: the certain answer is ill-defined, and the
      // bound only detects head-unification inconsistencies, so any
      // outcome is acceptable here.
      ASSERT_EQ(exact.status().code(), StatusCode::kInconsistent);
      continue;
    }
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    // Soundness: never claim a tuple the exact semantics does not certify.
    // (The bound can be strictly smaller: a combination whose cardinality
    // constraints are unsatisfiable still participates in the
    // intersection — dropping it would need the full rep-emptiness test.)
    for (const Tuple& tuple : bound->certain) {
      EXPECT_EQ(exact->certain.count(tuple), 1u)
          << "unsound certain tuple " << TupleToString(tuple) << "\n"
          << collection->ToString();
    }
  }
}

TEST(CertainAnswerTest, WorksForJoinViewsWithoutWorldEnumeration) {
  // V(x) ← E(x, y): fully sound claim {0}. Every world has E(0, y) for
  // some y, so π₀(E) certainly contains 0 — but the witness y differs per
  // world, so π₁(E) has no certain tuple. World enumeration would need a
  // finite domain; the template bound does not.
  auto view = testing::Q("V(x) <- E(x, y)");
  auto source = SourceDescriptor::Create("S", view, {U(0)},
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  auto first = CertainAnswerLowerBound(
      *collection, AlgebraExpr::Project(AlgebraExpr::Base("E", 2), {0}));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->certain, Relation{U(0)});
  auto second = CertainAnswerLowerBound(
      *collection, AlgebraExpr::Project(AlgebraExpr::Base("E", 2), {1}));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->certain.empty());
}

TEST(CertainAnswerTest, JoinQueryOverTwoSoundViews) {
  // A(x) ← P(x) claims {1} soundly; B(y) ← Q2(y) claims {1} soundly.
  // P ⋈ Q2 on equality certainly contains (1).
  auto view_a = testing::Q("A(x) <- P(x)");
  auto view_b = testing::Q("B(y) <- Q2(y)");
  auto source_a = SourceDescriptor::Create("SA", view_a, {U(1)},
                                           Rational::Zero(), Rational::One());
  auto source_b = SourceDescriptor::Create("SB", view_b, {U(1)},
                                           Rational::Zero(), Rational::One());
  ASSERT_TRUE(source_a.ok() && source_b.ok());
  auto collection = SourceCollection::Create({*source_a, *source_b});
  ASSERT_TRUE(collection.ok());
  auto plan = AlgebraExpr::Join(AlgebraExpr::Base("P", 1),
                                AlgebraExpr::Base("Q2", 1), {{0, 0}});
  auto bound = CertainAnswerLowerBound(*collection, plan);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound->certain, Relation{U(1)});
}

TEST(CertainAnswerTest, SelectionOnNullIsNeverCertain) {
  // V(x) ← E(x, y), with a selection on the existential column: the
  // join partner is a null, so After(col1, …) cannot be certain.
  auto view = testing::Q("V(x) <- E(x, y)");
  auto source = SourceDescriptor::Create("S", view, {U(0)},
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  auto plan = AlgebraExpr::Project(
      AlgebraExpr::Select(AlgebraExpr::Base("E", 2),
                          {Condition::WithConstant(1, "After",
                                                   Value(int64_t{0}))}),
      {0});
  auto bound = CertainAnswerLowerBound(*collection, plan);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->certain.empty());
}

TEST(CertainAnswerTest, InconsistentCollectionIsAnError) {
  // The only claimed fact contradicts its view's head pattern.
  auto view = testing::Q("V(y, y) <- T(y, y)");
  Relation extension = {Tuple{Value(int64_t{1}), Value(int64_t{2})}};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  EXPECT_EQ(CertainAnswerLowerBound(*collection,
                                    AlgebraExpr::Base("T", 2))
                .status()
                .code(),
            StatusCode::kInconsistent);
}

TEST(CertainAnswerTest, CombinationBudgetMarksTruncation) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1, 2}, "0", "0")});
  auto bound = CertainAnswerLowerBound(collection, AlgebraExpr::Base("R", 1),
                                       limits::Budget::WithNodeBudget(2));
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->truncated || bound->certain.empty());
}

}  // namespace
}  // namespace psc
