#include "psc/counting/world_enumerator.h"

#include <set>

#include "gtest/gtest.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/counting/confidence.h"
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
