// Determinism contract of the parallel runtime: every solver entry point,
// Monte-Carlo estimation included, must return bit-identical results for
// any worker count.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "psc/consistency/general_consistency.h"
#include "psc/core/query_system.h"
#include "psc/counting/confidence.h"
#include "psc/counting/dp_counter.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/exec/thread_pool.h"
#include "psc/util/random.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::Q;
using testing::U;

TEST(CountingDeterminismTest, SignatureCounterMatchesSequentialAcrossPools) {
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = 5;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection collection,
                             MakeRandomIdentityCollection(config, &rng));
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::Create(collection, IntDomain(5)));
    BinomialTable binomials;
    SignatureCounter counter(&instance, &binomials);
    PSC_ASSERT_OK_AND_ASSIGN(const CountingOutcome sequential,
                             counter.Count());
    for (const size_t threads : {2, 4, 8}) {
      exec::ThreadPool pool(threads);
      PSC_ASSERT_OK_AND_ASSIGN(
          const CountingOutcome parallel,
          counter.Count(uint64_t{1} << 26, &pool));
      EXPECT_EQ(parallel.world_count, sequential.world_count)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.feasible_shapes, sequential.feasible_shapes);
      EXPECT_EQ(parallel.visited_shapes, sequential.visited_shapes);
      ASSERT_EQ(parallel.worlds_containing.size(),
                sequential.worlds_containing.size());
      for (size_t g = 0; g < sequential.worlds_containing.size(); ++g) {
        EXPECT_EQ(parallel.worlds_containing[g],
                  sequential.worlds_containing[g])
            << "seed " << seed << " threads " << threads << " group " << g;
      }
    }
  }
}

TEST(CountingDeterminismTest, DpCounterMatchesSequentialAcrossPools) {
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = 6;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection collection,
                             MakeRandomIdentityCollection(config, &rng));
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::Create(collection, IntDomain(6)));
    DpCounter counter(&instance);
    PSC_ASSERT_OK_AND_ASSIGN(const CountingOutcome sequential,
                             counter.Count());
    for (const size_t threads : {2, 4}) {
      exec::ThreadPool pool(threads);
      PSC_ASSERT_OK_AND_ASSIGN(
          const CountingOutcome parallel,
          counter.Count(uint64_t{1} << 22, &pool));
      EXPECT_EQ(parallel.world_count, sequential.world_count)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.feasible_shapes, sequential.feasible_shapes);
      EXPECT_EQ(parallel.visited_shapes, sequential.visited_shapes);
      ASSERT_EQ(parallel.worlds_containing.size(),
                sequential.worlds_containing.size());
      for (size_t g = 0; g < sequential.worlds_containing.size(); ++g) {
        EXPECT_EQ(parallel.worlds_containing[g],
                  sequential.worlds_containing[g]);
      }
    }
  }
}

TEST(CountingDeterminismTest, ConfidenceTableMatchesSequentialWithPool) {
  RandomIdentityConfig config;
  config.num_sources = 2;
  config.universe_size = 5;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection collection,
                             MakeRandomIdentityCollection(config, &rng));
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::Create(collection, IntDomain(5)));
    auto sequential = ComputeBaseFactConfidences(instance);
    exec::ThreadPool pool(4);
    auto parallel =
        ComputeBaseFactConfidences(instance, uint64_t{1} << 26, &pool);
    ASSERT_EQ(sequential.ok(), parallel.ok()) << "seed " << seed;
    if (!sequential.ok()) continue;  // inconsistent draw: both agree
    EXPECT_EQ(parallel->world_count, sequential->world_count);
    ASSERT_EQ(parallel->entries.size(), sequential->entries.size());
    for (size_t i = 0; i < sequential->entries.size(); ++i) {
      EXPECT_EQ(parallel->entries[i].tuple, sequential->entries[i].tuple);
      EXPECT_EQ(parallel->entries[i].numerator,
                sequential->entries[i].numerator);
      EXPECT_EQ(parallel->entries[i].confidence,
                sequential->entries[i].confidence);
    }
  }
}

/// Random non-identity collections: projection views over a binary
/// relation, so the checker exercises the canonical-freeze search that
/// the parallel runtime shards.
SourceCollection MakeRandomProjectionCollection(Rng* rng) {
  static const char* const kBounds[] = {"0", "1/2", "1"};
  static const char* const kViews[] = {"V(x) <- R2(x, y)",
                                       "W(y) <- R2(x, y)"};
  std::vector<SourceDescriptor> sources;
  const int64_t num_sources = rng->UniformInt(1, 2);
  for (int64_t s = 0; s < num_sources; ++s) {
    Relation extension;
    for (const int64_t pick :
         rng->SampleWithoutReplacement(4, rng->UniformInt(1, 3))) {
      extension.insert(U(pick));
    }
    auto completeness = Rational::Parse(kBounds[rng->UniformInt(0, 2)]);
    auto soundness = Rational::Parse(kBounds[rng->UniformInt(0, 2)]);
    EXPECT_TRUE(completeness.ok() && soundness.ok());
    auto source = SourceDescriptor::Create(
        std::string("S") + static_cast<char>('0' + s),
        Q(kViews[static_cast<size_t>(s)]), std::move(extension),
        *completeness, *soundness);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    sources.push_back(std::move(source).ValueOrDie());
  }
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

TEST(ConsistencyDeterminismTest, FreezeSearchMatchesSequentialAcrossPools) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const SourceCollection collection = MakeRandomProjectionCollection(&rng);

    GeneralConsistencyChecker::Options options;
    options.enable_exhaustive = false;  // isolate the freeze search
    options.threads = 1;
    auto sequential = GeneralConsistencyChecker(options).Check(collection);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    for (const size_t threads : {2, 4, 8}) {
      options.threads = threads;
      auto parallel = GeneralConsistencyChecker(options).Check(collection);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->verdict, sequential->verdict)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel->method, sequential->method);
      ASSERT_EQ(parallel->witness.has_value(),
                sequential->witness.has_value());
      if (sequential->witness.has_value()) {
        // The parallel search accepts the *minimal-index* witness — the
        // very database the sequential scan stops at.
        EXPECT_EQ(*parallel->witness, *sequential->witness)
            << "seed " << seed << " threads " << threads;
      }
      EXPECT_GE(parallel->combinations_tried, uint64_t{0});
    }
  }
}

TEST(MonteCarloDeterminismTest, EstimatesAgreeAcrossWorkerCounts) {
  auto collection = testing::MakeUnaryCollection(
      {testing::MakeUnarySource("S1", {0, 1, 2}, "1/2", "1/3"),
       testing::MakeUnarySource("S2", {1, 2, 3}, "1/3", "1/2")});
  const ConjunctiveQuery query = Q("A(x) <- R(x)");
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    QuerySystem::Options options;
    options.threads = 1;
    PSC_ASSERT_OK_AND_ASSIGN(const QuerySystem reference_system,
                             QuerySystem::Create(collection, options));
    PSC_ASSERT_OK_AND_ASSIGN(
        const QueryAnswer reference,
        reference_system.AnswerMonteCarlo(query, IntDomain(4), 200, seed));
    EXPECT_EQ(reference.worlds_used, 200u);
    for (const size_t threads : {2, 3, 4, 8}) {
      options.threads = threads;
      PSC_ASSERT_OK_AND_ASSIGN(const QuerySystem system,
                               QuerySystem::Create(collection, options));
      PSC_ASSERT_OK_AND_ASSIGN(
          const QueryAnswer answer,
          system.AnswerMonteCarlo(query, IntDomain(4), 200, seed));
      EXPECT_EQ(answer.worlds_used, reference.worlds_used);
      EXPECT_EQ(answer.certain, reference.certain)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(answer.possible, reference.possible);
      EXPECT_EQ(answer.confidences.entries(),
                reference.confidences.entries());
    }
  }
}

}  // namespace
}  // namespace psc
