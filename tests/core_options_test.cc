// Resource-budget behaviour of the facade: every budget trip and every
// structural bound must surface as a typed error, never as silent
// truncation or a wrong answer.

#include "gtest/gtest.h"
#include "psc/core/query_system.h"
#include "psc/obs/metrics.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(QuerySystemOptionsTest, WorldCapSurfacesAsResourceExhausted) {
  QuerySystem::Options options;
  options.node_budget = 3;  // far fewer than 2^6 unconstrained worlds
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}), options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(6))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, ExactAnsweringRefusesBeforeTheFirstWorld) {
  // One unconstrained source over 23 constants: 2^23 possible worlds, past
  // IdentityWorldEnumerator::kMaxWorlds, so exact answering fails before
  // it enumerates a single world.
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}));
  ASSERT_TRUE(system.ok());
  const uint64_t before =
      obs::GlobalMetrics().CounterValue("counting.worlds_enumerated");
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(23))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(obs::GlobalMetrics().CounterValue("counting.worlds_enumerated"),
            before);
}

TEST(QuerySystemOptionsTest, ShapeCapSurfacesInBaseConfidences) {
  QuerySystem::Options options;
  options.node_budget = 1;
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->BaseConfidences(IntDomain(4)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, CancelledBaseConfidencesFailAtFourThreads) {
  // A token cancelled before the call stops the sharded count with a typed
  // error; no shard that never ran may reach the merge.
  QuerySystem::Options options;
  options.threads = 4;
  options.cancel.emplace();
  options.cancel->Cancel();
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->BaseConfidences(IntDomain(4)).status().code(),
            StatusCode::kDeadlineExceeded);
}

TEST(QuerySystemOptionsTest, UniverseBitsCapOnBruteForceFallback) {
  // Non-identity collection with a domain whose fact universe exceeds the
  // brute-force bound.
  auto view = testing::Q("V(x) <- E(x, y)");
  auto source = SourceDescriptor::Create("J", view, {testing::U(0)},
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  // E over {0..4}² = 25 facts > BruteForceWorldEnumerator::kMaxUniverseFacts.
  auto system = QuerySystem::Create(*collection);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("E", 2), IntDomain(5))
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

TEST(QuerySystemOptionsTest, MonteCarloSamplerRespectsShapeBudget) {
  QuerySystem::Options options;
  options.node_budget = 1;  // trips in the sampler's shape enumeration
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
