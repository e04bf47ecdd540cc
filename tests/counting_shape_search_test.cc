// Differential test of the level-bounded shape search: Count (sequential
// and sharded), FeasibleShapeTable, FirstFeasibleShape and visited_shapes
// against a brute-force loop over every count vector that decides each one
// with IdentityInstance::CheckCounts.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/exec/thread_pool.h"
#include "psc/util/combinatorics.h"
#include "psc/util/random.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::U;

/// What the search must report, computed vector by vector in the search's
/// lexicographic order (group 0 most significant).
struct BruteForce {
  BigInt world_count;
  std::vector<BigInt> worlds_containing;
  /// Each feasible count vector and its weight ∏ C(n_g, k_g).
  std::vector<std::vector<int64_t>> shapes;
  std::vector<BigInt> weights;
  uint64_t visited = 0;
  uint64_t visited_to_first = 0;
};

bool PassesSoundness(const IdentityInstance& instance,
                     const std::vector<int64_t>& counts) {
  for (size_t i = 0; i < instance.num_sources(); ++i) {
    int64_t in_extension = 0;
    for (size_t g = 0; g < counts.size(); ++g) {
      if ((instance.groups()[g].signature & (uint64_t{1} << i)) != 0) {
        in_extension += counts[g];
      }
    }
    if (in_extension < instance.constraints()[i].min_sound) return false;
  }
  return true;
}

BruteForce EveryCountVector(const IdentityInstance& instance) {
  const auto& groups = instance.groups();
  std::vector<std::vector<BigInt>> rows;
  for (const auto& group : groups) rows.push_back(BinomialRow(group.size));
  BruteForce expected;
  std::vector<BigInt> marked(groups.size());
  std::vector<int64_t> counts(groups.size(), 0);
  while (true) {
    if (PassesSoundness(instance, counts)) {
      ++expected.visited;
      if (expected.shapes.empty()) ++expected.visited_to_first;
    }
    if (instance.CheckCounts(counts)) {
      BigInt weight(1);
      for (size_t g = 0; g < groups.size(); ++g) {
        weight *= rows[g][static_cast<size_t>(counts[g])];
      }
      expected.world_count += weight;
      for (size_t g = 0; g < groups.size(); ++g) {
        BigInt term = weight;
        term.MulU32(static_cast<uint32_t>(counts[g]));
        marked[g] += term;
      }
      expected.shapes.push_back(counts);
      expected.weights.push_back(weight);
    }
    // Odometer step, last group fastest.
    size_t g = groups.size();
    while (g > 0 && counts[g - 1] == groups[g - 1].size) counts[--g] = 0;
    if (g == 0) break;
    ++counts[g - 1];
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    expected.worlds_containing.push_back(
        marked[g].DivExactU32(static_cast<uint32_t>(groups[g].size)));
  }
  return expected;
}

std::string RandomBound(Rng* rng) {
  static const char* const kBounds[] = {"0",   "1",   "1/4", "1/3",
                                        "1/2", "2/3", "3/4", "5/7"};
  return kBounds[rng->UniformInt(0, 7)];
}

/// 1–5 sources whose extensions fall into at most 7 signature groups of
/// 1–3 facts (a source may get no facts at all, and the universe may be
/// empty), over a universe that adds facts in no extension.
struct RandomInstance {
  SourceCollection collection;
  int64_t universe_size = 0;
};

RandomInstance MakeRandomInstance(Rng* rng, bool past_128_bits) {
  const int64_t num_sources = rng->UniformInt(1, 5);
  const int64_t mask_limit = (int64_t{1} << num_sources) - 1;
  const int64_t num_groups =
      rng->UniformInt(0, std::min<int64_t>(past_128_bits ? 4 : 7, mask_limit));
  std::vector<int64_t> masks =
      rng->SampleWithoutReplacement(mask_limit, num_groups);
  std::vector<std::vector<int64_t>> extensions(
      static_cast<size_t>(num_sources));
  int64_t next_fact = 0;
  for (const int64_t mask : masks) {
    const int64_t size = rng->UniformInt(1, 3);
    for (int64_t j = 0; j < size; ++j, ++next_fact) {
      for (int64_t i = 0; i < num_sources; ++i) {
        // mask + 1: signatures run over 1..2^sources − 1.
        if (((mask + 1) >> i) & 1) {
          extensions[static_cast<size_t>(i)].push_back(next_fact);
        }
      }
    }
  }
  std::vector<SourceDescriptor> sources;
  for (int64_t i = 0; i < num_sources; ++i) {
    sources.push_back(MakeUnarySource("S" + std::to_string(i),
                                      extensions[static_cast<size_t>(i)],
                                      RandomBound(rng), RandomBound(rng)));
  }
  // A large group outside every extension pushes the universe past the
  // 128-bit threshold; otherwise it stays small (or empty).
  const int64_t threshold =
      static_cast<int64_t>(SignatureCounter::kMax128BitUniverseFacts);
  const int64_t outside =
      past_128_bits ? threshold + 1 - next_fact + rng->UniformInt(0, 8)
                    : rng->UniformInt(0, 3);
  return RandomInstance{MakeUnaryCollection(std::move(sources)),
                        next_fact + outside};
}

void ExpectSearchMatchesBruteForce(const IdentityInstance& instance,
                                   exec::ThreadPool* pool) {
  const BruteForce expected = EveryCountVector(instance);
  SignatureCounter counter(&instance);

  for (exec::ThreadPool* count_pool : {static_cast<exec::ThreadPool*>(nullptr),
                                       pool}) {
    PSC_ASSERT_OK_AND_ASSIGN(const CountingOutcome outcome,
                             counter.Count(count_pool));
    EXPECT_EQ(outcome.world_count, expected.world_count);
    EXPECT_EQ(outcome.worlds_containing, expected.worlds_containing);
    EXPECT_EQ(outcome.feasible_shapes, expected.shapes.size());
    EXPECT_EQ(outcome.visited_shapes, expected.visited);
  }

  PSC_ASSERT_OK_AND_ASSIGN(const ShapeTable table,
                           counter.FeasibleShapeTable());
  ASSERT_EQ(table.num_shapes(), expected.shapes.size());
  for (size_t s = 0; s < table.num_shapes(); ++s) {
    const std::span<const int64_t> counts = table.counts(s);
    EXPECT_EQ(std::vector<int64_t>(counts.begin(), counts.end()),
              expected.shapes[s])
        << "shape " << s;
    EXPECT_EQ(table.weight(s), expected.weights[s]) << "shape " << s;
  }
  EXPECT_EQ(table.total(), expected.world_count);

  uint64_t visited = 0;
  PSC_ASSERT_OK_AND_ASSIGN(const std::optional<std::vector<int64_t>> first,
                           counter.FirstFeasibleShape(&visited));
  ASSERT_EQ(first.has_value(), !expected.shapes.empty());
  if (first.has_value()) {
    EXPECT_EQ(*first, expected.shapes.front());
  }
  EXPECT_EQ(visited, expected.visited_to_first);
}

class ShapeSearchDifferentialTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShapeSearchDifferentialTest, MatchesEveryCountVector) {
  const bool past_128_bits = GetParam();
  exec::ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const RandomInstance random = MakeRandomInstance(&rng, past_128_bits);
    std::vector<Tuple> universe;
    for (int64_t j = 0; j < random.universe_size; ++j) universe.push_back(U(j));
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::CreateWithUniverse(random.collection,
                                             std::move(universe)));
    EXPECT_EQ(instance.universe().size() >
                  SignatureCounter::kMax128BitUniverseFacts,
              past_128_bits);
    ExpectSearchMatchesBruteForce(instance, &pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Universe, ShapeSearchDifferentialTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Past128Bits" : "Within128Bits";
                         });

TEST(ShapeSearchBoundaryTest, ThresholdUniversesMatch) {
  // N = 121 sums in 128 bits and N = 122 in BigInt; both unconstrained
  // and with a binding completeness bound.
  exec::ThreadPool pool(4);
  for (const int64_t n : {int64_t{121}, int64_t{122}}) {
    for (const char* completeness : {"0", "1/2"}) {
      SCOPED_TRACE(std::to_string(n) + " facts, c = " + completeness);
      const SourceCollection collection = MakeUnaryCollection(
          {MakeUnarySource("S1", {0, 1, 2}, completeness, "1/3"),
           MakeUnarySource("S2", {2, 3}, "0", "1/2")});
      PSC_ASSERT_OK_AND_ASSIGN(const IdentityInstance instance,
                               IdentityInstance::Create(collection,
                                                        IntDomain(n)));
      ExpectSearchMatchesBruteForce(instance, &pool);
    }
  }
}

TEST(ShapeSearchBoundaryTest, EmptyUniverseHasOneWorld) {
  const SourceCollection collection =
      MakeUnaryCollection({MakeUnarySource("S", {}, "1", "1")});
  PSC_ASSERT_OK_AND_ASSIGN(const IdentityInstance instance,
                           IdentityInstance::CreateOverExtensions(collection));
  ASSERT_TRUE(instance.groups().empty());
  exec::ThreadPool pool(4);
  ExpectSearchMatchesBruteForce(instance, &pool);
}

}  // namespace
}  // namespace psc
