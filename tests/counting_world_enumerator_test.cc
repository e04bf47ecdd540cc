#include "psc/counting/world_enumerator.h"

#include <numeric>
#include <set>
#include <string>

#include "gtest/gtest.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/counting/confidence.h"
#include "psc/util/random.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(WorldEnumeratorTest, MatchesBruteForceSetOfWorlds) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  const std::vector<Value> domain = IntDomain(5);

  std::set<Database> via_groups;
  auto instance = IdentityInstance::Create(collection, domain);
  ASSERT_TRUE(instance.ok());
  IdentityWorldEnumerator enumerator(&*instance);
  auto completed = enumerator.ForEachWorld([&](const Database& world) {
    EXPECT_TRUE(via_groups.insert(world).second) << "duplicate world";
    return true;
  });
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_TRUE(*completed);

  std::set<Database> via_brute;
  BruteForceWorldEnumerator brute(&collection, domain);
  ASSERT_TRUE(brute
                  .ForEachPossibleWorld([&](const Database& world) {
                    via_brute.insert(world);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(via_groups, via_brute);
}

/// The worlds `ForEachWorldIds` visits, in order, each as its universe
/// positions in the order it lists them: "(1)(2 1)…".
std::string WorldSequence(const IdentityInstance& instance) {
  std::string sequence;
  IdentityWorldEnumerator enumerator(&instance);
  auto completed =
      enumerator.ForEachWorldIds([&](const std::vector<size_t>& members) {
        sequence += "(";
        for (size_t j = 0; j < members.size(); ++j) {
          sequence += (j == 0 ? "" : " ") + std::to_string(members[j]);
        }
        sequence += ")";
        return true;
      });
  EXPECT_TRUE(completed.ok()) << completed.status().ToString();
  return sequence;
}

TEST(WorldEnumeratorTest, VisitsTheRecordedWorldSequence) {
  // The visiting order is pinned (DESIGN §3, the identity compile):
  // shapes in the table's order, then each group's k-subsets in
  // lexicographic order, the last group fastest.
  //
  // Example 5.1 over a, b, c, d1 (0-3): every group holds one fact.
  const SourceCollection example =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  PSC_ASSERT_OK_AND_ASSIGN(const IdentityInstance example_instance,
                           IdentityInstance::Create(example, IntDomain(4)));
  EXPECT_EQ(WorldSequence(example_instance),
            "(1)(2 1)(0 1)(0 2)(0 2 1)(3 1)(3 0 2 1)");

  // Three random sources over 8 facts: groups {4 7}, {2 6}, {0 5}, {1}
  // and {3}, so a shape can advance three two-fact groups at once.
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = 8;
  config.max_extension = 5;
  Rng rng(79);
  PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection random,
                           MakeRandomIdentityCollection(config, &rng));
  PSC_ASSERT_OK_AND_ASSIGN(const IdentityInstance random_instance,
                           IdentityInstance::Create(random, IntDomain(8)));
  ASSERT_EQ(random_instance.groups().size(), 5u);
  EXPECT_EQ(
      WorldSequence(random_instance),
      "(1 3)(0 1 3)(5 1 3)(0 5 1 3)(2 1)(6 1)(2 1 3)(6 1 3)(2 0 1)(2 5 1)"
      "(6 0 1)(6 5 1)(2 0 1 3)(2 5 1 3)(6 0 1 3)(6 5 1 3)(2 0 5 1)"
      "(6 0 5 1)(2 0 5 1 3)(6 0 5 1 3)(2 6 1 3)(2 6 0 1)(2 6 5 1)"
      "(2 6 0 1 3)(2 6 5 1 3)(2 6 0 5 1)(2 6 0 5 1 3)(4 1 3)(7 1 3)"
      "(4 0 1 3)(4 5 1 3)(7 0 1 3)(7 5 1 3)(4 2 1 3)(4 6 1 3)(7 2 1 3)"
      "(7 6 1 3)(4 2 0 1)(4 2 5 1)(4 6 0 1)(4 6 5 1)(7 2 0 1)(7 2 5 1)"
      "(7 6 0 1)(7 6 5 1)(4 2 0 1 3)(4 2 5 1 3)(4 6 0 1 3)(4 6 5 1 3)"
      "(7 2 0 1 3)(7 2 5 1 3)(7 6 0 1 3)(7 6 5 1 3)(4 2 0 5 1 3)"
      "(4 6 0 5 1 3)(7 2 0 5 1 3)(7 6 0 5 1 3)(4 2 6 0 1 3)(4 2 6 5 1 3)"
      "(7 2 6 0 1 3)(7 2 6 5 1 3)(4 2 6 0 5 1)(7 2 6 0 5 1)"
      "(4 2 6 0 5 1 3)(7 2 6 0 5 1 3)(4 7 1 3)(4 7 2 0 1 3)(4 7 2 5 1 3)"
      "(4 7 6 0 1 3)(4 7 6 5 1 3)(4 7 2 0 5 1 3)(4 7 6 0 5 1 3)"
      "(4 7 2 6 0 5 1 3)");
}

TEST(WorldEnumeratorTest, CountMatchesCounter) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1, 2}, "1/3", "1/3"),
                           MakeUnarySource("S2", {2, 3}, "1/2", "1/2")});
  auto instance = IdentityInstance::Create(collection, IntDomain(5));
  ASSERT_TRUE(instance.ok());
  auto table = ComputeBaseFactConfidences(*instance);
  ASSERT_TRUE(table.ok());
  uint64_t enumerated = 0;
  IdentityWorldEnumerator enumerator(&*instance);
  ASSERT_TRUE(enumerator
                  .ForEachWorld([&](const Database&) {
                    ++enumerated;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(enumerated, table->world_count.ToUint64());
}

TEST(WorldEnumeratorTest, EarlyStopHonored) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(6));
  ASSERT_TRUE(instance.ok());
  IdentityWorldEnumerator enumerator(&*instance);
  int seen = 0;
  auto completed = enumerator.ForEachWorld([&](const Database&) {
    return ++seen < 5;
  });
  ASSERT_TRUE(completed.ok());
  EXPECT_FALSE(*completed);
  EXPECT_EQ(seen, 5);
}

TEST(WorldEnumeratorTest, RefusesAtTheFirstShapePastTheWorldBound) {
  // One unconstrained source of 600 facts over 1,200 constants: two
  // groups of 600 and 361,201 feasible shapes. The shape walk's running
  // total passes kMaxWorlds at the fourth shape of its first last-group
  // run (totals 1, 601, 180,301, 36,000,501), so the refusal needs a few
  // nodes; a walk that stored every shape first would charge 602.
  std::vector<int64_t> facts(600);
  std::iota(facts.begin(), facts.end(), int64_t{0});
  const SourceCollection collection =
      MakeUnaryCollection({MakeUnarySource("S", facts, "0", "0")});
  PSC_ASSERT_OK_AND_ASSIGN(
      const IdentityInstance instance,
      IdentityInstance::Create(collection, IntDomain(1200)));
  IdentityWorldEnumerator enumerator(&instance);
  auto completed = enumerator.ForEachWorldIds(
      [](const std::vector<size_t>&) { return true; },
      limits::Budget::WithNodeBudget(16));
  ASSERT_FALSE(completed.ok());
  EXPECT_EQ(completed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(completed.status().message(),
            "exact enumeration visits at most 4194304 worlds; poss(S) has "
            "more");
}

TEST(WorldEnumeratorTest, WorldBudgetEnforced) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")});
  auto instance = IdentityInstance::Create(collection, IntDomain(10));
  ASSERT_TRUE(instance.ok());
  IdentityWorldEnumerator enumerator(&*instance);
  auto completed =
      enumerator.ForEachWorld([](const Database&) { return true; },
                              limits::Budget::WithNodeBudget(10));
  EXPECT_EQ(completed.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace psc
