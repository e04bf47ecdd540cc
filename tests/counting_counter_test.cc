#include "psc/counting/model_counter.h"

#include "gtest/gtest.h"
#include "psc/counting/confidence.h"
#include "psc/counting/consensus.h"
#include "psc/counting/linear_system.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/obs/metrics.h"
#include "psc/util/random.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::U;

/// Counts worlds and per-fact containment by checking all 2^N subsets via
/// the explicit linear system — the independent oracle.
struct OracleCounts {
  BigInt total;
  std::vector<BigInt> per_fact;
};

OracleCounts Oracle(const IdentityInstance& instance) {
  auto system = LinearSystem::FromIdentityInstance(instance);
  EXPECT_TRUE(system.ok());
  OracleCounts counts;
  auto total = system->CountSolutionsBruteForce();
  EXPECT_TRUE(total.ok());
  counts.total = *total;
  for (size_t j = 0; j < instance.universe().size(); ++j) {
    auto with = system->CountSolutionsWithFixed(j, true);
    EXPECT_TRUE(with.ok());
    counts.per_fact.push_back(*with);
  }
  return counts;
}

void ExpectCounterMatchesOracle(const SourceCollection& collection,
                                const std::vector<Value>& domain) {
  auto instance = IdentityInstance::Create(collection, domain);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  SignatureCounter counter(&*instance);
  auto outcome = counter.Count();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  const OracleCounts oracle = Oracle(*instance);
  EXPECT_EQ(outcome->world_count, oracle.total);
  for (size_t j = 0; j < instance->universe().size(); ++j) {
    auto group = instance->GroupIndexOf(instance->universe()[j]);
    ASSERT_TRUE(group.ok());
    EXPECT_EQ(outcome->worlds_containing[*group], oracle.per_fact[j])
        << "fact " << TupleToString(instance->universe()[j]);
  }
}

TEST(SignatureCounterTest, MatchesOracleOnOverlappingSources) {
  ExpectCounterMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")}),
      IntDomain(5));
}

TEST(SignatureCounterTest, MatchesOracleOnDisjointSources) {
  ExpectCounterMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/3", "1"),
                           MakeUnarySource("S2", {2, 3}, "1/3", "1/2")}),
      IntDomain(6));
}

TEST(SignatureCounterTest, MatchesOracleOnNestedSources) {
  ExpectCounterMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1, 2, 3}, "1/4", "1/4"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1")}),
      IntDomain(6));
}

TEST(SignatureCounterTest, MatchesOracleWithExactSource) {
  ExpectCounterMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1", "1"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")}),
      IntDomain(4));
}

TEST(SignatureCounterTest, MatchesOracleThreeSources) {
  ExpectCounterMatchesOracle(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1, 2}, "1/2", "2/3"),
                           MakeUnarySource("S2", {2, 3}, "1/2", "1/2"),
                           MakeUnarySource("S3", {3, 4}, "1/3", "1/2")}),
      IntDomain(6));
}

TEST(SignatureCounterTest, MatchesOracleOnRandomCollections) {
  // Forty seeded three-source collections, extensions drawn from facts
  // 0–3, over a 5-constant domain: total and per-fact counts against the
  // 2^N oracle.
  Rng rng(4242);
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = 4;
  config.min_extension = 1;
  config.max_extension = 4;
  for (int trial = 0; trial < 40; ++trial) {
    auto collection = MakeRandomIdentityCollection(config, &rng);
    ASSERT_TRUE(collection.ok());
    SCOPED_TRACE(collection->ToString());
    ExpectCounterMatchesOracle(*collection, IntDomain(5));
  }
}

TEST(SignatureCounterTest, UnconstrainedCollectionCountsAllSubsets) {
  // c = s = 0: every subset of the universe is a possible world.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(10));
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  auto outcome = counter.Count();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->world_count.ToString(), "1024");  // 2^10
}

TEST(SignatureCounterTest, InconsistentCollectionCountsZero) {
  // Two exact sources with different extensions cannot both hold.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  auto outcome = counter.Count();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->world_count.IsZero());
}

TEST(SignatureCounterTest, FirstFeasibleShapeStopsEarly) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(12));
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  uint64_t visited = 0;
  auto first = counter.FirstFeasibleShape(&visited);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ(visited, 1u);  // the empty world is feasible immediately
}

TEST(SignatureCounterTest, FeasibleShapesSumToWorldCount) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  auto shapes = counter.FeasibleShapeTable();
  ASSERT_TRUE(shapes.ok());
  BigInt sum;
  for (size_t i = 0; i < shapes->num_shapes(); ++i) sum += shapes->weight(i);
  auto outcome = counter.Count();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(sum, outcome->world_count);
  EXPECT_EQ(shapes->total(), outcome->world_count);
  EXPECT_EQ(shapes->num_shapes(), outcome->feasible_shapes);
}

TEST(SignatureCounterTest, ShapeBudgetEnforced) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(8));
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  EXPECT_EQ(
      counter.Count(nullptr, limits::Budget::WithNodeBudget(3)).status().code(),
      StatusCode::kResourceExhausted);
}

#if PSC_OBS_ENABLED

TEST(SignatureCounterTest, ShapeWalksCountTheirWork) {
  // A sampler build, an enumeration and a consensus call each walk the
  // shapes once: each adds the walk's visited count vectors and the
  // table's feasible shapes, the numbers `Count` reports.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  SignatureCounter counter(&*instance);
  PSC_ASSERT_OK_AND_ASSIGN(const CountingOutcome outcome, counter.Count());
  ASSERT_GT(outcome.visited_shapes, outcome.feasible_shapes);

  const obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  const auto expect_one_walk = [&](const char* call, const auto& run) {
    const uint64_t visited = metrics.CounterValue("counting.shapes_visited");
    const uint64_t feasible =
        metrics.CounterValue("counting.feasible_shapes");
    run();
    EXPECT_EQ(metrics.CounterValue("counting.shapes_visited") - visited,
              outcome.visited_shapes)
        << call;
    EXPECT_EQ(metrics.CounterValue("counting.feasible_shapes") - feasible,
              outcome.feasible_shapes)
        << call;
  };
  expect_one_walk("sampler build", [&] {
    EXPECT_TRUE(WorldSampler::Create(&*instance).ok());
  });
  expect_one_walk("enumeration", [&] {
    IdentityWorldEnumerator enumerator(&*instance);
    EXPECT_TRUE(
        enumerator.ForEachWorldIds([](const std::vector<size_t>&) {
          return true;
        }).ok());
  });
  expect_one_walk("consensus", [&] {
    EXPECT_TRUE(ComputeSourceConsensus(*instance).ok());
  });
}

#endif  // PSC_OBS_ENABLED

TEST(ConfidenceTableTest, CertainAndPossibleFacts) {
  // S1 exact on {0}: fact 0 is certain; fact 1 possible only.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1/2", "1"),
                           MakeUnarySource("S2", {0, 1}, "0", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(3));
  ASSERT_TRUE(instance.ok());
  auto table = ComputeBaseFactConfidences(*instance);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const std::vector<Tuple> certain = table->CertainFacts();
  ASSERT_EQ(certain.size(), 1u);
  EXPECT_EQ(certain[0], U(0));
  const std::vector<Tuple> possible = table->PossibleFacts();
  EXPECT_GE(possible.size(), 2u);
  auto conf0 = table->ConfidenceOf(U(0));
  ASSERT_TRUE(conf0.ok());
  EXPECT_DOUBLE_EQ(*conf0, 1.0);
  EXPECT_EQ(table->ConfidenceOf(U(99)).status().code(),
            StatusCode::kNotFound);
}

TEST(ConfidenceTableTest, InconsistentCollectionIsAnError) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(ComputeBaseFactConfidences(*instance).status().code(),
            StatusCode::kInconsistent);
}

}  // namespace
}  // namespace psc
