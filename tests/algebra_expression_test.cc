#include "psc/algebra/expression.h"

#include "gtest/gtest.h"
#include "psc/obs/metrics.h"
#include "test_util.h"

namespace psc {
namespace {

Tuple T2(int64_t a, int64_t b) { return {Value(a), Value(b)}; }
using testing::U;

std::map<std::string, ProbRelation> BaseRelations() {
  ProbRelation r(2);
  EXPECT_TRUE(r.Insert(T2(1, 10), 0.5).ok());
  EXPECT_TRUE(r.Insert(T2(2, 10), 0.5).ok());
  ProbRelation s(1);
  EXPECT_TRUE(s.Insert(U(10), 0.5).ok());
  std::map<std::string, ProbRelation> base;
  base.emplace("R", std::move(r));
  base.emplace("S", std::move(s));
  return base;
}

TEST(ExpressionTest, BaseLeaf) {
  auto expr = AlgebraExpr::Base("R", 2);
  EXPECT_EQ(expr->OutputArity(), 2u);
  EXPECT_EQ(expr->BaseRelations(), (std::set<std::string>{"R"}));
  auto result = expr->EvalConfidence(BaseRelations());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(ExpressionTest, MissingBaseRelationIsError) {
  auto expr = AlgebraExpr::Base("Missing", 1);
  EXPECT_EQ(expr->EvalConfidence(BaseRelations()).status().code(),
            StatusCode::kNotFound);
  // Arity mismatch also surfaces.
  auto wrong = AlgebraExpr::Base("R", 3);
  EXPECT_EQ(wrong->EvalConfidence(BaseRelations()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExpressionTest, ComposedPlanConfidence) {
  // π₀(σ(col1 = 10)(R)) — both R-tuples survive, project to {1}, {2}.
  auto plan = AlgebraExpr::Project(
      AlgebraExpr::Select(
          AlgebraExpr::Base("R", 2),
          {Condition::WithConstant(1, "Eq", Value(int64_t{10}))}),
      {0});
  EXPECT_EQ(plan->OutputArity(), 1u);
  auto result = plan->EvalConfidence(BaseRelations());
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result->ConfidenceOf(U(1)), 0.5);
  EXPECT_DOUBLE_EQ(*result->ConfidenceOf(U(2)), 0.5);
}

TEST(ExpressionTest, ProductAndJoinPlans) {
  auto product = AlgebraExpr::Product(AlgebraExpr::Base("R", 2),
                                      AlgebraExpr::Base("S", 1));
  EXPECT_EQ(product->OutputArity(), 3u);
  auto product_result = product->EvalConfidence(BaseRelations());
  ASSERT_TRUE(product_result.ok());
  EXPECT_EQ(product_result->size(), 2u);
  EXPECT_DOUBLE_EQ(*product_result->ConfidenceOf(
                       {Value(int64_t{1}), Value(int64_t{10}),
                        Value(int64_t{10})}),
                   0.25);

  auto join = AlgebraExpr::Join(AlgebraExpr::Base("R", 2),
                                AlgebraExpr::Base("S", 1), {{1, 0}});
  EXPECT_EQ(join->OutputArity(), 2u);
  auto join_result = join->EvalConfidence(BaseRelations());
  ASSERT_TRUE(join_result.ok());
  EXPECT_DOUBLE_EQ(*join_result->ConfidenceOf(T2(1, 10)), 0.25);
}

TEST(ExpressionTest, UnionPlan) {
  auto left = AlgebraExpr::Project(AlgebraExpr::Base("R", 2), {1});
  auto combined = AlgebraExpr::Union(left, AlgebraExpr::Base("S", 1));
  auto result = combined->EvalConfidence(BaseRelations());
  ASSERT_TRUE(result.ok());
  // π₁(R) gives conf(10) = 0.75; S gives 0.5 → ⊕ = 0.875.
  EXPECT_DOUBLE_EQ(*result->ConfidenceOf(U(10)), 0.875);
}

TEST(ExpressionTest, EvalInWorldMatchesSetSemantics) {
  Database world;
  world.AddFact("R", T2(1, 10));
  world.AddFact("R", T2(2, 20));
  world.AddFact("S", U(10));
  auto plan = AlgebraExpr::Join(AlgebraExpr::Base("R", 2),
                                AlgebraExpr::Base("S", 1), {{1, 0}});
  auto result = plan->EvalInWorld(world);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(*result->begin(), T2(1, 10));
  // Absent base relations evaluate to empty, not error.
  auto missing = AlgebraExpr::Base("Nope", 1)->EvalInWorld(world);
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

TEST(ExpressionTest, LineageAnswersEveryWorldLikeEvalInWorld) {
  // Universe: R(a, b) over {0, 1, 2}² and S(a) over {0, 1}; every one of
  // its 2^11 subsets is a world.
  std::vector<Fact> universe;
  for (int64_t a = 0; a < 3; ++a) {
    for (int64_t b = 0; b < 3; ++b) universe.emplace_back("R", T2(a, b));
  }
  for (int64_t a = 0; a < 2; ++a) universe.emplace_back("S", U(a));
  const auto r = AlgebraExpr::Base("R", 2);
  const auto s = AlgebraExpr::Base("S", 1);
  const auto eq = [](size_t column, int64_t value) {
    return Condition::WithConstant(column, "Eq", Value(value));
  };
  const auto lt = [](size_t column, int64_t value) {
    return Condition::WithConstant(column, "Lt", Value(value));
  };
  const Condition bogus =
      Condition::WithConstant(0, "Bogus", Value(int64_t{0}));
  const std::vector<AlgebraExprPtr> plans = {
      AlgebraExpr::Project(AlgebraExpr::Join(r, s, {{1, 0}}), {0}),
      AlgebraExpr::Project(AlgebraExpr::Join(r, r, {{1, 0}}), {0, 2}),
      AlgebraExpr::Union(AlgebraExpr::Project(r, {1}), s),
      AlgebraExpr::Select(AlgebraExpr::Product(s, s),
                          {Condition::WithColumn(0, "Ne", 1)}),
      AlgebraExpr::Union(AlgebraExpr::Base("Nope", 1), s),
      // Fail only in worlds holding R(2, _), or S(1) and R(0, _).
      AlgebraExpr::Select(r, {eq(0, 2), bogus}),
      AlgebraExpr::Union(
          AlgebraExpr::Project(
              AlgebraExpr::Select(AlgebraExpr::Product(s, r),
                                  {eq(0, 1), lt(1, 1),
                                   Condition::WithColumn(5, "Eq", 0)}),
              {1, 2}),
          AlgebraExpr::Project(r, {0, 0})),
      // Two errors: worlds holding R(2, _) and R(0, _) meet the left one.
      AlgebraExpr::Union(
          AlgebraExpr::Select(r, {eq(0, 2), bogus}),
          AlgebraExpr::Select(r,
                              {lt(0, 1), Condition::WithColumn(7, "Eq", 0)})),
      // Keyed pairing (the first condition equates the sides, either way
      // round), then a condition that fails on the pairs it keeps.
      AlgebraExpr::Select(AlgebraExpr::Product(r, s),
                          {Condition::WithColumn(1, "Eq", 2), bogus}),
      AlgebraExpr::Select(AlgebraExpr::Product(s, r),
                          {Condition::WithColumn(2, "Eq", 0), lt(1, 2),
                           Condition::WithColumn(6, "Eq", 0)}),
      // Projection of a base whose facts have another arity fails on
      // every tuple.
      AlgebraExpr::Project(AlgebraExpr::Base("S", 2), {1}),
  };
  for (const AlgebraExprPtr& plan : plans) {
    PSC_ASSERT_OK_AND_ASSIGN(const Lineage lineage,
                             plan->EvalLineage(universe));
    for (uint64_t mask = 0; mask < (uint64_t{1} << universe.size()); ++mask) {
      Database world;
      FactBitset bits(universe.size());
      for (size_t id = 0; id < universe.size(); ++id) {
        if ((mask >> id) & 1) {
          world.AddFact(universe[id]);
          bits.Set(id);
        }
      }
      const Result<Relation> expected = plan->EvalInWorld(world);
      const Status error = lineage.ErrorIn(bits);
      ASSERT_EQ(error.ToString(), expected.status().ToString())
          << plan->ToString() << " mask " << mask;
      if (!expected.ok()) continue;
      Relation answer;
      for (size_t i = 0; i < lineage.tuples().size(); ++i) {
        if (lineage.Contains(i, bits)) answer.insert(lineage.tuples()[i]);
      }
      ASSERT_EQ(answer, *expected) << plan->ToString() << " mask " << mask;
    }
  }
}

#if PSC_OBS_ENABLED

TEST(ExpressionTest, LineageSelectsOverAProductWithoutBuildingIt) {
  std::vector<Fact> universe;
  for (int64_t a = 0; a < 20; ++a) universe.emplace_back("S", U(a));
  const auto s = AlgebraExpr::Base("S", 1);
  const auto product = AlgebraExpr::Product(s, s);
  auto& metrics = obs::GlobalMetrics();
  // algebra.tuples_produced counts each operator's output: the 400-tuple
  // product alone, but only the selected pairs when a selection is on top.
  const struct {
    AlgebraExprPtr plan;
    size_t tuples;
  } cases[] = {
      {product, 400},
      {AlgebraExpr::Select(product, {Condition::WithColumn(0, "Lt", 1)}), 190},
      {AlgebraExpr::Select(product, {Condition::WithColumn(1, "Eq", 0)}), 20},
  };
  for (const auto& c : cases) {
    const uint64_t before = metrics.CounterValue("algebra.tuples_produced");
    PSC_ASSERT_OK_AND_ASSIGN(const Lineage lineage,
                             c.plan->EvalLineage(universe));
    EXPECT_EQ(lineage.tuples().size(), c.tuples) << c.plan->ToString();
    EXPECT_EQ(metrics.CounterValue("algebra.tuples_produced") - before,
              c.tuples)
        << c.plan->ToString();
  }
}

#endif  // PSC_OBS_ENABLED

TEST(ExpressionTest, BaseRelationsCollectsAllLeaves) {
  auto plan = AlgebraExpr::Union(
      AlgebraExpr::Project(
          AlgebraExpr::Product(AlgebraExpr::Base("A", 1),
                               AlgebraExpr::Base("B", 1)),
          {0}),
      AlgebraExpr::Base("C", 1));
  EXPECT_EQ(plan->BaseRelations(), (std::set<std::string>{"A", "B", "C"}));
}

TEST(ExpressionTest, ToStringRendersStructure) {
  auto plan = AlgebraExpr::Project(
      AlgebraExpr::Select(AlgebraExpr::Base("R", 2),
                          {Condition::WithConstant(1, "Eq",
                                                   Value(int64_t{10}))}),
      {0});
  EXPECT_EQ(plan->ToString(), "π{0}(σ{Eq($1, 10)}(R))");
}

}  // namespace
}  // namespace psc
