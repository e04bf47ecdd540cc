#include "psc/consistency/possible_worlds.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(BruteForceTest, CountsExampleCollection) {
  // Example 5.1 with m = 1: 2m+5 = 7 worlds.
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  BruteForceWorldEnumerator enumerator(&collection, IntDomain(4));
  auto count = enumerator.CountPossibleWorlds();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 7u);
}

TEST(BruteForceTest, EveryEnumeratedWorldSatisfiesBounds) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  BruteForceWorldEnumerator enumerator(&collection, IntDomain(4));
  ASSERT_TRUE(enumerator
                  .ForEachPossibleWorld([&](const Database& world) {
                    auto ok = collection.IsPossibleWorld(world);
                    EXPECT_TRUE(ok.ok() && *ok);
                    return true;
                  })
                  .ok());
}

TEST(BruteForceTest, CollectRespectsCap) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")});
  // One budget node per subset mask: 3 of the 32 masks, then the trip.
  BruteForceWorldEnumerator capped(&collection, IntDomain(5),
                                   limits::Budget::WithNodeBudget(3));
  EXPECT_EQ(capped.CollectPossibleWorlds().status().code(),
            StatusCode::kResourceExhausted);
  BruteForceWorldEnumerator enumerator(&collection, IntDomain(5));
  auto all = enumerator.CollectPossibleWorlds();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 32u);
}

TEST(BruteForceTest, UniverseCapEnforced) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")});
  const size_t bound = BruteForceWorldEnumerator::kMaxUniverseFacts;
  BruteForceWorldEnumerator at_bound(&collection,
                                     IntDomain(static_cast<int64_t>(bound)));
  auto universe = at_bound.Universe();
  ASSERT_TRUE(universe.ok()) << universe.status().ToString();
  EXPECT_EQ(universe->size(), bound);
  BruteForceWorldEnumerator past_bound(
      &collection, IntDomain(static_cast<int64_t>(bound) + 1));
  EXPECT_EQ(past_bound.CountPossibleWorlds().status().code(),
            StatusCode::kResourceExhausted);
}

TEST(BruteForceTest, MultiRelationSchema) {
  // A join view over E and N; brute force handles arbitrary schemas.
  auto view = testing::Q("V(x) <- E(x, y), N(y)");
  Relation extension = {testing::U(0)};
  auto source = SourceDescriptor::Create("J", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  BruteForceWorldEnumerator enumerator(&*collection, IntDomain(2));
  auto count = enumerator.CountPossibleWorlds();
  ASSERT_TRUE(count.ok());
  // Worlds where 0 ∈ V(D): E(0,y) and N(y) for some y. Verified > 0 and
  // < 2^6 (both trivial bounds wrong only if evaluation is broken).
  EXPECT_GT(*count, 0u);
  EXPECT_LT(*count, 64u);
}

TEST(BruteForceTest, EarlyStopPropagates) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")});
  BruteForceWorldEnumerator enumerator(&collection, IntDomain(3));
  int seen = 0;
  auto completed = enumerator.ForEachPossibleWorld([&](const Database&) {
    return ++seen < 2;
  });
  ASSERT_TRUE(completed.ok());
  EXPECT_FALSE(*completed);
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace psc
