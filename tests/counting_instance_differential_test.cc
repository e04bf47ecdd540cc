// Differential test of the identity-instance compile: the merging compile
// (IdentityInstance) against the tuple-keyed reference builder
// (tests/oracle) on seeded random identity collections, over the
// extensions, over a full domain and over explicit universes, errors
// included.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/identity_instance_oracle.h"
#include "psc/consistency/identity_consistency.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"

namespace psc {
namespace {

/// Both compiles agree: both fail with the same status, or both succeed
/// with the same universe order, groups and group lookups.
void ExpectSameCompile(const Result<IdentityInstance>& compiled,
                       const Result<oracle::IdentityInstanceModel>& reference,
                       const Tuple& outside) {
  ASSERT_EQ(compiled.ok(), reference.ok())
      << (compiled.ok() ? reference.status() : compiled.status()).ToString();
  if (!compiled.ok()) {
    EXPECT_EQ(compiled.status().code(), reference.status().code());
    EXPECT_EQ(compiled.status().message(), reference.status().message());
    return;
  }
  ASSERT_EQ(compiled->universe(), reference->universe);
  ASSERT_EQ(compiled->groups().size(), reference->groups.size());
  for (size_t g = 0; g < reference->groups.size(); ++g) {
    EXPECT_EQ(compiled->groups()[g].signature, reference->groups[g].signature)
        << "group " << g;
    EXPECT_EQ(compiled->groups()[g].size, reference->groups[g].size)
        << "group " << g;
    EXPECT_EQ(compiled->groups()[g].members, reference->groups[g].members)
        << "group " << g;
  }
  for (size_t index = 0; index < reference->universe.size(); ++index) {
    const Tuple& tuple = reference->universe[index];
    auto group = compiled->GroupIndexOf(tuple);
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    EXPECT_EQ(*group, *reference->GroupIndexOf(tuple)) << TupleToString(tuple);
    EXPECT_EQ(compiled->GroupIndexAt(index), *group) << TupleToString(tuple);
  }
  auto missing = compiled->GroupIndexOf(outside);
  auto reference_missing = reference->GroupIndexOf(outside);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), reference_missing.status().message());
}

/// A random identity collection over R: 1–6 sources, arity 1–3, over a
/// few int and string constants, so extensions overlap often; some are
/// empty.
SourceCollection RandomIdentityCollection(Rng* rng,
                                          std::vector<Value>* constants) {
  const std::vector<Value> pool = {Value(int64_t{-2}), Value(int64_t{0}),
                                   Value(int64_t{1}),  Value(int64_t{7}),
                                   Value(""),          Value("a"),
                                   Value("ab")};
  const size_t arity = static_cast<size_t>(rng->UniformInt(1, 3));
  // Few constants at arity 3, so tuples repeat across sources there too.
  constants->clear();
  for (const Value& value : pool) {
    if (rng->Bernoulli(arity == 3 ? 0.35 : 0.6)) constants->push_back(value);
  }
  if (constants->empty()) constants->push_back(pool[0]);
  const Rational bounds[] = {Rational(0), Rational(1, 2), Rational(1)};

  std::vector<SourceDescriptor> sources;
  const int64_t count = rng->UniformInt(1, 6);
  for (int64_t i = 0; i < count; ++i) {
    Relation extension;
    const int64_t size = rng->Bernoulli(0.15) ? 0 : rng->UniformInt(1, 8);
    for (int64_t t = 0; t < size; ++t) {
      Tuple tuple;
      for (size_t a = 0; a < arity; ++a) {
        tuple.push_back((*constants)[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(constants->size()) - 1))]);
      }
      extension.insert(std::move(tuple));
    }
    auto source = SourceDescriptor::Create(
        StrCat("S", i), ConjunctiveQuery::Identity("R", arity),
        std::move(extension), bounds[rng->UniformInt(0, 2)],
        bounds[rng->UniformInt(0, 2)]);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    sources.push_back(std::move(source).ValueOrDie());
  }
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

TEST(IdentityInstanceDifferentialTest, MatchesTupleKeyedBuilder) {
  const Value unused("unused");
  int errors_compared = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    std::vector<Value> constants;
    const SourceCollection collection =
        RandomIdentityCollection(&rng, &constants);
    const size_t arity = *collection.schema().Arity("R");
    const Tuple outside(arity, unused);

    ExpectSameCompile(IdentityInstance::CreateOverExtensions(collection),
                      oracle::CreateIdentityInstanceOverExtensions(collection),
                      outside);

    // A shuffled domain that repeats values, so the universe repeats
    // tuples.
    std::vector<Value> domain = constants;
    for (int64_t r = rng.UniformInt(0, 3); r > 0; --r) {
      domain.push_back(constants[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(constants.size()) - 1))]);
    }
    rng.Shuffle(&domain);
    ExpectSameCompile(IdentityInstance::Create(collection, domain),
                      oracle::CreateIdentityInstance(collection, domain),
                      outside);

    // A domain without one mentioned constant misses extension tuples.
    const std::vector<Value> mentioned = collection.MentionedConstants();
    if (!mentioned.empty()) {
      const Value dropped = mentioned[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mentioned.size()) - 1))];
      std::vector<Value> short_domain;
      for (const Value& value : domain) {
        if (value != dropped) short_domain.push_back(value);
      }
      if (!short_domain.empty()) {
        auto compiled = IdentityInstance::Create(collection, short_domain);
        EXPECT_FALSE(compiled.ok());
        ExpectSameCompile(
            compiled, oracle::CreateIdentityInstance(collection, short_domain),
            outside);
        ++errors_compared;
      }
    }

    // Explicit universes: the extensions' tuples, shuffled and repeated,
    // then with one tuple dropped, then with a tuple of the wrong arity.
    std::vector<Tuple> universe;
    for (const SourceDescriptor& source : collection.sources()) {
      for (const Tuple& tuple : source.extension()) {
        universe.push_back(tuple);
        if (rng.Bernoulli(0.2)) universe.push_back(tuple);
      }
    }
    rng.Shuffle(&universe);
    ExpectSameCompile(
        IdentityInstance::CreateWithUniverse(collection, universe),
        oracle::CreateIdentityInstanceWithUniverse(collection, universe),
        outside);
    if (!universe.empty()) {
      const Tuple dropped = universe[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(universe.size()) - 1))];
      std::vector<Tuple> short_universe;
      for (const Tuple& tuple : universe) {
        if (tuple != dropped) short_universe.push_back(tuple);
      }
      ExpectSameCompile(
          IdentityInstance::CreateWithUniverse(collection, short_universe),
          oracle::CreateIdentityInstanceWithUniverse(collection,
                                                     short_universe),
          outside);
      ++errors_compared;
    }
    // Two tuples of wrong arities: the error names the earlier one.
    std::vector<Tuple> wrong_arity = universe;
    for (const Tuple& wrong : {Tuple(arity + 1, unused), Tuple()}) {
      const int64_t at =
          rng.UniformInt(0, static_cast<int64_t>(wrong_arity.size()));
      wrong_arity.insert(wrong_arity.begin() + at, wrong);
    }
    ExpectSameCompile(
        IdentityInstance::CreateWithUniverse(collection, wrong_arity),
        oracle::CreateIdentityInstanceWithUniverse(collection, wrong_arity),
        outside);
  }
  // Most seeds reach an error path, not only the successful compiles.
  EXPECT_GT(errors_compared, 500);
}

TEST(IdentityInstanceDifferentialTest, WitnessMatchesFactByFactBuild) {
  // The identity check builds its witness in tuple order from the sorted
  // positions; it must equal the world added one fact at a time (the
  // first k_g members of each group of the first feasible shape).
  int witnesses = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    std::vector<Value> constants;
    const SourceCollection collection =
        RandomIdentityCollection(&rng, &constants);
    auto report = CheckIdentityConsistency(collection);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    auto instance = IdentityInstance::CreateOverExtensions(collection);
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    SignatureCounter counter(&*instance);
    auto counts = counter.FirstFeasibleShape();
    ASSERT_TRUE(counts.ok()) << counts.status().ToString();
    ASSERT_EQ(report->consistent, counts->has_value());
    if (!counts->has_value()) {
      EXPECT_FALSE(report->witness.has_value());
      continue;
    }
    Database expected;
    const auto& groups = instance->groups();
    for (size_t g = 0; g < groups.size(); ++g) {
      for (int64_t j = 0; j < (**counts)[g]; ++j) {
        const size_t member = groups[g].members[static_cast<size_t>(j)];
        expected.AddFact(instance->relation(), instance->universe()[member]);
      }
    }
    ASSERT_TRUE(report->witness.has_value());
    EXPECT_EQ(*report->witness, expected);
    auto possible = collection.IsPossibleWorld(*report->witness);
    ASSERT_TRUE(possible.ok()) << possible.status().ToString();
    EXPECT_TRUE(*possible);
    ++witnesses;
  }
  // About two seeds in five are consistent and compare a witness.
  EXPECT_GT(witnesses, 150);
}

}  // namespace
}  // namespace psc
