// Randomized cross-validation: the exact identity-view consistency checker
// and the signature counter must agree with the brute-force oracle on
// hundreds of random collections.

#include "gtest/gtest.h"
#include "psc/consistency/identity_consistency.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/counting/confidence.h"
#include "psc/workload/random_collections.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;

struct PropertyCase {
  int64_t num_sources;
  int64_t universe;
  uint64_t seed;
};

class ConsistencyPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ConsistencyPropertyTest, CheckerAgreesWithBruteForceOracle) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed);
  RandomIdentityConfig config;
  config.num_sources = param.num_sources;
  config.universe_size = param.universe;
  config.min_extension = 1;
  config.max_extension = param.universe;
  for (int trial = 0; trial < 40; ++trial) {
    auto collection = MakeRandomIdentityCollection(config, &rng);
    ASSERT_TRUE(collection.ok());
    auto report = CheckIdentityConsistency(*collection);
    ASSERT_TRUE(report.ok());
    BruteForceWorldEnumerator oracle(&*collection, IntDomain(param.universe));
    auto count = oracle.CountPossibleWorlds();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(report->consistent, *count > 0)
        << collection->ToString();
    if (report->consistent) {
      auto valid = collection->IsPossibleWorld(*report->witness);
      ASSERT_TRUE(valid.ok());
      EXPECT_TRUE(*valid) << collection->ToString() << "\nwitness:\n"
                          << report->witness->ToString();
    }
  }
}

TEST_P(ConsistencyPropertyTest, CounterAgreesWithBruteForceOracle) {
  const PropertyCase param = GetParam();
  Rng rng(param.seed + 1000);
  RandomIdentityConfig config;
  config.num_sources = param.num_sources;
  config.universe_size = param.universe;
  config.min_extension = 1;
  config.max_extension = param.universe;
  for (int trial = 0; trial < 25; ++trial) {
    auto collection = MakeRandomIdentityCollection(config, &rng);
    ASSERT_TRUE(collection.ok());
    auto instance =
        IdentityInstance::Create(*collection, IntDomain(param.universe));
    ASSERT_TRUE(instance.ok());
    SignatureCounter counter(&*instance);
    auto outcome = counter.Count();
    ASSERT_TRUE(outcome.ok());
    BruteForceWorldEnumerator oracle(&*collection, IntDomain(param.universe));
    auto count = oracle.CountPossibleWorlds();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(outcome->world_count.ToUint64(), *count)
        << collection->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsistencyPropertyTest,
    ::testing::Values(PropertyCase{1, 3, 11}, PropertyCase{2, 3, 22},
                      PropertyCase{2, 4, 33}, PropertyCase{3, 4, 44},
                      PropertyCase{3, 5, 55}, PropertyCase{4, 4, 66}),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      return "n" + std::to_string(info.param.num_sources) + "u" +
             std::to_string(info.param.universe);
    });

}  // namespace
}  // namespace psc
