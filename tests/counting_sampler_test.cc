#include "psc/counting/world_sampler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

#include "gtest/gtest.h"
#include "psc/counting/model_counter.h"
#include "psc/counting/world_enumerator.h"
#include "psc/source/measures.h"
#include "psc/util/combinatorics.h"
#include "psc/workload/cache_workload.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

/// P(X ≥ x) for X ~ χ²(df): the regularized upper incomplete gamma
/// Q(df/2, x/2), by its series below df/2 + 1 and its continued fraction
/// (modified Lentz) above.
double ChiSquareSurvival(double x, double df) {
  const double a = df / 2;
  const double z = x / 2;
  if (z <= 0) return 1;
  const double prefix = std::exp(a * std::log(z) - z - std::lgamma(a));
  if (z < a + 1) {
    double term = 1 / a;
    double sum = term;
    for (int n = 1; n < 10000 && term > sum * 1e-16; ++n) {
      term *= z / (a + n);
      sum += term;
    }
    return 1 - prefix * sum;
  }
  constexpr double kTiny = 1e-300;
  double b = z + 1 - a;
  double c = 1 / kTiny;
  double d = 1 / b;
  double h = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - a);
    b += 2;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1) < 1e-16) break;
  }
  return prefix * h;
}

TEST(ChiSquareSurvivalTest, MatchesClosedForms) {
  // Two degrees of freedom: e^{-x/2}; one: erfc(sqrt(x/2)).
  for (const double x : {0.5, 3.0, 10.0, 60.0}) {
    EXPECT_NEAR(ChiSquareSurvival(x, 2), std::exp(-x / 2), 1e-12) << x;
    EXPECT_NEAR(ChiSquareSurvival(x, 1), std::erfc(std::sqrt(x / 2)), 1e-12)
        << x;
  }
}

TEST(WorldSamplerTest, SmallerSideDrawsAreUniformOverPossibleWorlds) {
  // S holds facts 0-3 (soundness 1/4, completeness 1/2) over the domain
  // 0-5: a world keeps k = 1-4 of S's facts and j <= min(k, 2) of the two
  // facts outside S. Both groups have shapes with k < n/2, k = n/2 and
  // k > n/2, so draws take every side of the smaller-side rule. 56 worlds.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1, 2, 3}, "1/2", "1/4")});
  auto instance = IdentityInstance::Create(collection, IntDomain(6));
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  auto sampler = WorldSampler::Create(&*instance);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();

  // The worlds as sorted fact ids, and the counts each group takes.
  std::map<std::vector<size_t>, size_t> index_of;
  std::set<std::pair<size_t, size_t>> shapes;
  const auto in_s = [&](size_t id) {
    return instance->universe()[id][0].AsInt() < 4;
  };
  auto completed = IdentityWorldEnumerator(&*instance).ForEachWorldIds(
      [&](const std::vector<size_t>& ids) {
        std::vector<size_t> world = ids;
        std::sort(world.begin(), world.end());
        index_of.emplace(world, index_of.size());
        const size_t kept = static_cast<size_t>(
            std::count_if(world.begin(), world.end(), in_s));
        shapes.emplace(kept, world.size() - kept);
        return true;
      });
  ASSERT_TRUE(completed.ok() && *completed);
  ASSERT_EQ(index_of.size(), 56u);
  EXPECT_EQ(sampler->world_count().ToUint64(), 56u);
  for (const size_t k : {1u, 2u, 3u, 4u}) {
    EXPECT_EQ(shapes.count({k, 0}), 1u) << k;
  }
  for (const size_t j : {0u, 1u, 2u}) {
    EXPECT_EQ(shapes.count({2, j}), 1u) << j;
  }

  constexpr int kDraws = 200000;
  std::vector<int64_t> hits(index_of.size(), 0);
  Rng draw_rng(2024);
  Rng sample_rng(2024);
  WorldSampler::DrawnWorld world;
  std::vector<size_t> members;
  for (int i = 0; i < kDraws; ++i) {
    sampler->Draw(&draw_rng, &world);
    sampler->ListMembers(world, &members);
    if (i < 2000) {
      // Sample makes the same RNG use and holds exactly Draw's facts.
      Relation drawn;
      for (const size_t id : members) drawn.insert(instance->universe()[id]);
      ASSERT_EQ(sampler->Sample(&sample_rng).GetRelation("R"), drawn)
          << "draw " << i;
    }
    std::sort(members.begin(), members.end());
    const auto it = index_of.find(members);
    ASSERT_NE(it, index_of.end()) << "draw " << i << " is not a world";
    ++hits[it->second];
  }
  const double expected = static_cast<double>(kDraws) / 56.0;
  double chi_square = 0;
  for (const int64_t count : hits) {
    const double diff = static_cast<double>(count) - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_GE(ChiSquareSurvival(chi_square, 55), 1e-6)
      << "chi-square " << chi_square << " over 55 degrees of freedom";
}

/// Per-group counts of a drawn world, read off its record.
std::vector<int64_t> DrawnCounts(const IdentityInstance& instance,
                                 const WorldSampler::DrawnWorld& world) {
  std::vector<int64_t> counts(instance.groups().size(), 0);
  for (const WorldSampler::DrawnWorld::GroupPicks& drawn : world.groups()) {
    const int64_t picks = static_cast<int64_t>(world.picks(drawn).size());
    counts[drawn.group] =
        drawn.kept ? picks : instance.groups()[drawn.group].size - picks;
  }
  return counts;
}

TEST(WorldSamplerTest, DrawsPickTheShapesOfBigIntWeights) {
  // Cache fleets over domains padded with constants no cache lists, to
  // universes on both sides of the 128-bit bound: every draw must pick
  // the shape a BigInt target over the weights ∏ C(n_g, k_g) picks, each
  // computed here from the feasible count vectors.
  for (const int64_t facts : {100, 111, 121, 122, 160}) {
    CacheConfig config;
    config.num_objects = 50;
    config.num_caches = 3;
    config.coverage = 0.6;
    config.staleness = 0.2;
    config.seed = static_cast<uint64_t>(facts);
    PSC_ASSERT_OK_AND_ASSIGN(const CacheWorkload workload,
                             MakeCacheWorkload(config));
    std::vector<Value> domain = workload.collection.MentionedConstants();
    ASSERT_LT(static_cast<int64_t>(domain.size()), facts);
    for (int64_t extra = 1000;
         static_cast<int64_t>(domain.size()) < facts; ++extra) {
      domain.emplace_back(extra);
    }
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::Create(workload.collection, domain));
    ASSERT_EQ(static_cast<int64_t>(instance.universe().size()), facts);
    PSC_ASSERT_OK_AND_ASSIGN(const WorldSampler sampler,
                             WorldSampler::Create(&instance));

    SignatureCounter counter(&instance);
    PSC_ASSERT_OK_AND_ASSIGN(const ShapeTable table,
                             counter.FeasibleShapeTable());
    ASSERT_EQ(sampler.num_shapes(), table.num_shapes());
    ASSERT_GT(table.num_shapes(), 100u) << facts;
    std::vector<std::vector<BigInt>> rows;
    for (const auto& group : instance.groups()) {
      rows.push_back(BinomialRow(group.size));
    }
    std::vector<std::vector<int64_t>> shapes;
    std::vector<BigInt> cumulative;
    BigInt total;
    for (size_t s = 0; s < table.num_shapes(); ++s) {
      const std::span<const int64_t> counts = table.counts(s);
      shapes.emplace_back(counts.begin(), counts.end());
      BigInt weight(1);
      for (size_t g = 0; g < counts.size(); ++g) {
        weight *= rows[g][static_cast<size_t>(counts[g])];
      }
      total += weight;
      cumulative.push_back(total);
    }
    EXPECT_EQ(sampler.world_count(), total);

    Rng rng(facts);
    Rng reference(facts);
    WorldSampler::DrawnWorld world;
    for (int i = 0; i < 10000; ++i) {
      sampler.Draw(&rng, &world);
      const BigInt target = BigInt::RandomBelow(total, reference.engine());
      const std::vector<int64_t>& shape =
          shapes[static_cast<size_t>(
              std::upper_bound(cumulative.begin(), cumulative.end(),
                               target) -
              cumulative.begin())];
      ASSERT_EQ(DrawnCounts(instance, world), shape)
          << facts << " facts, draw " << i;
      // The same RNG use as the sampler's Floyd picks: one call per pick
      // on each group's smaller side.
      for (size_t g = 0; g < shape.size(); ++g) {
        const int64_t n = instance.groups()[g].size;
        const int64_t k = shape[g];
        if (k == 0) continue;
        for (int64_t j = n - std::min(k, n - k); j < n; ++j) {
          reference.UniformInt(0, j);
        }
      }
    }
  }
}

TEST(WorldSamplerTest, SamplesAreAlwaysPossibleWorlds) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  auto sampler = WorldSampler::Create(&*instance);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    const Database world = sampler->Sample(&rng);
    auto possible = collection.IsPossibleWorld(world);
    ASSERT_TRUE(possible.ok());
    EXPECT_TRUE(*possible) << world.ToString();
  }
}

TEST(WorldSamplerTest, FrequenciesApproachExactConfidences) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  const std::vector<Value> domain = IntDomain(4);  // m = 1
  auto instance = IdentityInstance::Create(collection, domain);
  ASSERT_TRUE(instance.ok());
  auto sampler = WorldSampler::Create(&*instance);
  ASSERT_TRUE(sampler.ok());
  EXPECT_EQ(sampler->world_count().ToUint64(), 7u);  // 2m+5 with m = 1

  Rng rng(23);
  const int trials = 30000;
  std::map<Tuple, int> hits;
  for (int i = 0; i < trials; ++i) {
    const Database world = sampler->Sample(&rng);
    for (const Fact& fact : world.AllFacts()) ++hits[fact.tuple()];
  }
  // Exact confidences with m = 1: b = 6/7, a = c = 4/7, d = 2/7.
  EXPECT_NEAR(hits[testing::U(1)] / double(trials), 6.0 / 7.0, 0.02);
  EXPECT_NEAR(hits[testing::U(0)] / double(trials), 4.0 / 7.0, 0.02);
  EXPECT_NEAR(hits[testing::U(2)] / double(trials), 4.0 / 7.0, 0.02);
  EXPECT_NEAR(hits[testing::U(3)] / double(trials), 2.0 / 7.0, 0.02);
}

TEST(WorldSamplerTest, InconsistentCollectionRejected) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ(WorldSampler::Create(&*instance).status().code(),
            StatusCode::kInconsistent);
}

TEST(WorldSamplerTest, SingleWorldCollectionIsDeterministic) {
  // One exact source: the only world is exactly its extension.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1", "1")});
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  ASSERT_TRUE(instance.ok());
  auto sampler = WorldSampler::Create(&*instance);
  ASSERT_TRUE(sampler.ok());
  EXPECT_TRUE(sampler->world_count().IsOne());
  Rng rng(5);
  const Database world = sampler->Sample(&rng);
  EXPECT_EQ(world.size(), 2u);
  EXPECT_TRUE(world.Contains("R", testing::U(0)));
  EXPECT_TRUE(world.Contains("R", testing::U(1)));
}

}  // namespace
}  // namespace psc
