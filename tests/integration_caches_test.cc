// End-to-end: the Section 6 cache/mirror application. Identity views over
// a set of objects; confidence ranks live objects above stale ones.

#include "gtest/gtest.h"
#include "psc/core/query_system.h"
#include "psc/counting/confidence.h"
#include "psc/counting/world_sampler.h"
#include "psc/workload/cache_workload.h"
#include "test_util.h"

namespace psc {
namespace {

TEST(CacheIntegrationTest, ConfidenceSeparatesSharedFromStaleEntries) {
  CacheConfig config;
  config.num_objects = 10;
  config.num_caches = 3;
  config.coverage = 0.8;
  config.staleness = 0.2;
  config.seed = 7;
  auto workload = MakeCacheWorkload(config);
  ASSERT_TRUE(workload.ok());

  auto instance =
      IdentityInstance::CreateOverExtensions(workload->collection);
  ASSERT_TRUE(instance.ok());
  auto table = ComputeBaseFactConfidences(*instance);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  // Average confidence of entries cached by >= 2 caches vs single-cache
  // entries: multiply-cached objects must rank strictly higher.
  double multi_sum = 0;
  int multi_n = 0;
  double single_sum = 0;
  int single_n = 0;
  for (const TupleConfidence& entry : table->entries) {
    auto group = instance->GroupIndexOf(entry.tuple);
    ASSERT_TRUE(group.ok());
    const int owners =
        __builtin_popcountll(instance->groups()[*group].signature);
    if (owners >= 2) {
      multi_sum += entry.confidence;
      ++multi_n;
    } else {
      single_sum += entry.confidence;
      ++single_n;
    }
  }
  ASSERT_GT(multi_n, 0);
  ASSERT_GT(single_n, 0);
  EXPECT_GT(multi_sum / multi_n, single_sum / single_n);
}

TEST(CacheIntegrationTest, FacadeAnswersMembershipQueries) {
  CacheConfig config;
  config.num_objects = 8;
  config.num_caches = 2;
  config.coverage = 0.75;
  config.staleness = 0.0;
  config.seed = 11;
  auto workload = MakeCacheWorkload(config);
  ASSERT_TRUE(workload.ok());
  auto system = QuerySystem::Create(workload->collection);
  ASSERT_TRUE(system.ok());

  // Domain: live objects plus the potential stale range.
  std::vector<Value> domain;
  for (int64_t id = 0; id < 2 * config.num_objects; ++id) {
    domain.push_back(Value(id));
  }
  auto answer = system->AnswerExact(AlgebraExpr::Base("Object", 1), domain);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(answer->worlds_used, 0u);
  // With zero staleness every cached entry is live; live ids must carry
  // all of the possible-answer mass that is backed by a cache.
  for (const Tuple& tuple : answer->possible) {
    auto confidence = answer->confidences.ConfidenceOf(tuple);
    ASSERT_TRUE(confidence.ok());
    EXPECT_GT(*confidence, 0.0);
  }
}

TEST(CacheIntegrationTest, MonteCarloHandlesLargerCaches) {
  CacheConfig config;
  config.num_objects = 60;
  config.num_caches = 3;
  config.coverage = 0.5;
  config.staleness = 0.1;
  config.seed = 13;
  auto workload = MakeCacheWorkload(config);
  ASSERT_TRUE(workload.ok());
  auto instance =
      IdentityInstance::CreateOverExtensions(workload->collection);
  ASSERT_TRUE(instance.ok());
  auto sampler = WorldSampler::Create(&*instance);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(21);
  for (int i = 0; i < 20; ++i) {
    const Database world = sampler->Sample(&rng);
    auto ok = workload->collection.IsPossibleWorld(world);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(*ok);
  }
}

}  // namespace
}  // namespace psc
