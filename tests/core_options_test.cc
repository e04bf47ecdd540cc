// Resource-budget behaviour of the facade: every cap must surface as a
// typed error, never as silent truncation or a wrong answer.

#include "gtest/gtest.h"
#include "psc/core/query_system.h"
#include "psc/relational/query_plan.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(QuerySystemOptionsTest, WorldCapSurfacesAsResourceExhausted) {
  QuerySystem::Options options;
  options.max_worlds = 3;  // far fewer than 2^6 unconstrained worlds
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}), options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(6))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, ShapeCapSurfacesInBaseConfidences) {
  QuerySystem::Options options;
  options.max_shapes = 1;
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->BaseConfidences(IntDomain(4)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, UniverseBitsCapOnBruteForceFallback) {
  // Non-identity collection with a domain whose fact universe exceeds the
  // configured bit budget.
  auto view = testing::Q("V(x) <- E(x, y)");
  auto source = SourceDescriptor::Create("J", view, {testing::U(0)},
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  QuerySystem::Options options;
  options.max_universe_bits = 4;  // E over {0..2}² = 9 facts > 4
  auto system = QuerySystem::Create(*collection, options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("E", 2), IntDomain(3))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, GenerousBudgetsSucceedOnTheSameInputs) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}));
  ASSERT_TRUE(system.ok());
  auto answer = system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(6));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->worlds_used, 64u);  // 2^6
}

TEST(QuerySystemOptionsTest, DomainMustCoverExtensions) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {7}, "0", "0")}));
  ASSERT_TRUE(system.ok());
  // Domain {0,1} misses the claimed fact 7.
  EXPECT_EQ(system->BaseConfidences(IntDomain(2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(2)).ok());
}

TEST(QuerySystemOptionsTest, UseCompiledEvalTogglesTheGlobalEngine) {
  // The option is process-global by design (see Options docs): Create
  // applies it immediately, and both settings answer identically.
  const bool was_enabled = eval::CompiledEvalEnabled();

  QuerySystem::Options options;
  options.use_compiled_eval = false;
  auto legacy_system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}), options);
  ASSERT_TRUE(legacy_system.ok());
  EXPECT_FALSE(eval::CompiledEvalEnabled());
  auto legacy =
      legacy_system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(4));
  ASSERT_TRUE(legacy.ok());

  options.use_compiled_eval = true;
  auto compiled_system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}), options);
  ASSERT_TRUE(compiled_system.ok());
  EXPECT_TRUE(eval::CompiledEvalEnabled());
  auto compiled =
      compiled_system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(4));
  ASSERT_TRUE(compiled.ok());

  EXPECT_EQ(compiled->certain, legacy->certain);
  EXPECT_EQ(compiled->possible, legacy->possible);
  EXPECT_EQ(compiled->confidences.entries(), legacy->confidences.entries());

  eval::SetCompiledEvalEnabled(was_enabled);
}

TEST(QuerySystemOptionsTest, MonteCarloSamplerRespectsShapeBudget) {
  QuerySystem::Options options;
  options.max_shapes = 1;  // caps the sampler's shape enumeration
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerMonteCarlo(AlgebraExpr::Base("R", 1), IntDomain(4),
                                     10, 1)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace psc
