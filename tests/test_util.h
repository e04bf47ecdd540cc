#ifndef PSC_TESTS_TEST_UTIL_H_
#define PSC_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/parser/parser.h"
#include "psc/relational/value.h"
#include "psc/source/source_collection.h"
#include "psc/source/source_descriptor.h"
#include "psc/util/result.h"
#include "psc/workload/ghcn.h"

namespace psc::testing {

/// gtest helpers for Status/Result.
#define PSC_EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()
#define PSC_ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()
#define PSC_ASSERT_OK_AND_ASSIGN(lhs, rexpr)             \
  auto PSC_CONCAT(_psc_test_res_, __LINE__) = (rexpr);   \
  ASSERT_TRUE(PSC_CONCAT(_psc_test_res_, __LINE__).ok()) \
      << PSC_CONCAT(_psc_test_res_, __LINE__).status().ToString(); \
  lhs = std::move(PSC_CONCAT(_psc_test_res_, __LINE__)).ValueOrDie()

/// Unary integer tuple {Value(v)}.
inline Tuple U(int64_t v) { return Tuple{Value(v)}; }

/// A unary identity-view source over relation "R" with integer facts.
inline SourceDescriptor MakeUnarySource(const std::string& name,
                                        const std::vector<int64_t>& facts,
                                        const std::string& completeness,
                                        const std::string& soundness) {
  Relation extension;
  for (const int64_t fact : facts) extension.insert(U(fact));
  auto c = Rational::Parse(completeness);
  auto s = Rational::Parse(soundness);
  EXPECT_TRUE(c.ok() && s.ok());
  auto source = SourceDescriptor::Create(
      name, ConjunctiveQuery::Identity("R", 1), std::move(extension),
      *c, *s);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return std::move(source).ValueOrDie();
}

/// A collection of unary identity sources.
inline SourceCollection MakeUnaryCollection(
    std::vector<SourceDescriptor> sources) {
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

/// Integer domain {0, …, n−1}.
inline std::vector<Value> IntDomain(int64_t n) {
  std::vector<Value> domain;
  domain.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) domain.push_back(Value(i));
  return domain;
}

/// Parses a query or aborts the test.
inline ConjunctiveQuery Q(const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return std::move(query).ValueOrDie();
}

/// \brief A GHCN federation of the oneshot_federation benchmark's shape:
/// the exact station catalog S0 plus `sources` country temperature sources
/// S1… (Canada, US, Mexico in turn; coverage 0.75, error rate 0.1) over
/// 1990–1991. Its views are joins with a built-in, so checking it runs the
/// canonical-freeze search, whose ground-merge candidate the catalog needs.
inline SourceCollection MakeGhcnFederation(int64_t stations, int64_t sources,
                                           uint64_t seed) {
  GhcnConfig config;
  config.num_stations = stations;
  config.start_year = 1990;
  config.end_year = 1991;
  GhcnGenerator generator(config, seed);
  const GhcnWorld world = generator.GenerateTruth();
  std::vector<SourceDescriptor> descriptors;
  auto catalog = generator.MakeCatalogSource(world, "S0");
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  descriptors.push_back(std::move(catalog).ValueOrDie());
  const char* const kCountries[] = {"Canada", "US", "Mexico"};
  for (int64_t i = 0; i < sources; ++i) {
    auto source = generator.MakeCountrySource(
        world, "S" + std::to_string(i + 1), kCountries[i % 3],
        /*after_year=*/1900, /*coverage=*/0.75, /*error_rate=*/0.1);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    descriptors.push_back(std::move(source).ValueOrDie());
  }
  auto collection = SourceCollection::Create(std::move(descriptors));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

}  // namespace psc::testing

#endif  // PSC_TESTS_TEST_UTIL_H_
