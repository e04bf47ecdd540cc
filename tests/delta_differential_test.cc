// Differential tests for the incremental delta engine: a database (or
// collection) maintained through random insert/retract deltas must be
// bit-identical — contents, query results, verdicts, confidences — to one
// rebuilt from scratch at the same logical state, under both the compiled
// evaluation engine and the reference oracle, and across thread counts.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/eval_oracle.h"
#include "psc/delta/incremental.h"
#include "psc/parser/parser.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/source/source_collection.h"
#include "psc/util/random.h"
#include "psc/util/rational.h"
#include "psc/util/string_util.h"

namespace psc {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *std::move(query);
}

DatabaseDelta RandomDelta(Rng& rng, const Database& db) {
  DatabaseDelta delta;
  const int64_t inserts = rng.UniformInt(0, 6);
  for (int64_t i = 0; i < inserts; ++i) {
    delta.Insert("E", {Value(rng.UniformInt(0, 11)),
                       Value(rng.UniformInt(0, 11))});
  }
  // Retract a mix of live tuples and misses (no-ops must stay no-ops).
  const Relation& live = db.GetRelation("E");
  const int64_t retracts = rng.UniformInt(0, 4);
  for (int64_t i = 0; i < retracts && !live.empty(); ++i) {
    auto it = live.begin();
    std::advance(it, rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    delta.Retract("E", *it);
  }
  if (rng.UniformInt(0, 1) == 0) {
    delta.Retract("E", {Value(int64_t{99}), Value(int64_t{99})});  // miss
  }
  return delta;
}

TEST(DeltaDifferentialTest, StreamedDatabaseMatchesRebuiltAcrossEngines) {
  const ConjunctiveQuery two_hop = Q("V(x, z) <- E(x, y), E(y, z)");
  const ConjunctiveQuery triangle = Q("V(x) <- E(x, y), E(y, z), E(z, x)");

  for (const uint64_t seed : {11u, 29u, 47u}) {
    Rng rng(seed);
    Database streamed;
    for (int i = 0; i < 24; ++i) {
      streamed.AddFact("E", {Value(rng.UniformInt(0, 11)),
                             Value(rng.UniformInt(0, 11))});
    }
    // Warm indexes so every later delta exercises the patching path.
    ASSERT_TRUE(two_hop.Evaluate(streamed).ok());

    for (int step = 0; step < 40; ++step) {
      streamed.ApplyDelta(RandomDelta(rng, streamed));

      Database rebuilt;
      for (const Fact& fact : streamed.AllFacts()) rebuilt.AddFact(fact);
      ASSERT_EQ(streamed, rebuilt) << "seed " << seed << " step " << step;

      for (const ConjunctiveQuery* query : {&two_hop, &triangle}) {
        auto live = query->Evaluate(streamed);
        auto fresh = query->Evaluate(rebuilt);
        auto reference = oracle::Evaluate(*query, streamed);
        ASSERT_TRUE(live.ok()) << live.status().ToString();
        ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
        ASSERT_TRUE(reference.ok()) << reference.status().ToString();
        EXPECT_EQ(*live, *fresh) << "seed " << seed << " step " << step;
        EXPECT_EQ(*live, *reference)
            << "oracle mismatch, seed " << seed << " step " << step;
      }
    }
  }
}

CollectionDelta RandomCollectionDelta(Rng& rng,
                                      const SourceCollection& collection) {
  CollectionDelta delta;
  const int64_t ops = rng.UniformInt(1, 4);
  for (int64_t i = 0; i < ops; ++i) {
    const size_t source = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(collection.size()) - 1));
    const std::string& name = collection.source(source).name();
    const Tuple tuple = {Value(rng.UniformInt(0, 5))};
    if (rng.UniformInt(0, 2) == 0) {
      delta.Retract(name, tuple);
    } else {
      delta.Insert(name, tuple);
    }
  }
  return delta;
}

/// Mirrors of R, or mirrors of R beside mirrors of P: two relation groups,
/// where a delta confined to one group still changes |poss(S)|.
SourceCollection MirrorCollection(bool two_groups) {
  std::vector<SourceDescriptor> sources;
  const int count = two_groups ? 4 : 2;
  for (int i = 0; i < count; ++i) {
    const char* relation = i < 2 ? "R" : "P";
    Relation extension = {{Value(int64_t{i % 2})},
                          {Value(int64_t{i % 2 + 1})}};
    auto source = SourceDescriptor::Create(
        StrCat("S", i), Q(StrCat("V", i, "(x) <- ", relation, "(x)")),
        std::move(extension), Rational(1, 8), Rational(1, 2));
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    sources.push_back(*std::move(source));
  }
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return *std::move(collection);
}

TEST(DeltaDifferentialTest, IncrementalSystemMatchesFreshSystemAcrossThreads) {
  for (const bool two_groups : {false, true}) {
    std::vector<Value> domain;
    for (int64_t v = 0; v <= 5; ++v) domain.push_back(Value(v));
    std::vector<ConjunctiveQuery> queries = {Q("Ans(x) <- R(x)")};
    if (two_groups) queries.push_back(Q("Ans(x) <- P(x)"));

    for (const size_t threads : {size_t{1}, size_t{4}}) {
      QuerySystem::Options options;
      options.threads = threads;
      auto incremental = delta::IncrementalSystem::Create(
          MirrorCollection(two_groups), options);
      ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

      Rng rng(5 + threads);
      for (int step = 0; step < 12; ++step) {
        SCOPED_TRACE(StrCat("groups ", two_groups ? 2 : 1, " threads ",
                            threads, " step ", step));
        auto summary = incremental->ApplyDelta(
            RandomCollectionDelta(rng, incremental->CollectionSnapshot()));
        ASSERT_TRUE(summary.ok()) << summary.status().ToString();

        // Oracle: a fresh system over a snapshot of the mutated collection.
        auto fresh =
            QuerySystem::Create(incremental->CollectionSnapshot(), options);
        ASSERT_TRUE(fresh.ok());

        auto live_report = incremental->CheckConsistency();
        auto fresh_report = fresh->CheckConsistency();
        ASSERT_TRUE(live_report.ok()) << live_report.status().ToString();
        ASSERT_TRUE(fresh_report.ok()) << fresh_report.status().ToString();
        ASSERT_EQ(live_report->verdict, fresh_report->verdict);
        if (live_report->verdict != ConsistencyVerdict::kConsistent) continue;

        // Each query once per step: a hit after a delta to the other group
        // must still count the current worlds.
        for (const ConjunctiveQuery& query : queries) {
          auto live = incremental->AnswerExact(query, domain);
          auto fresh_answer = fresh->AnswerExact(query, domain);
          ASSERT_TRUE(live.ok()) << live.status().ToString();
          ASSERT_TRUE(fresh_answer.ok()) << fresh_answer.status().ToString();
          EXPECT_EQ(live->certain, fresh_answer->certain);
          EXPECT_EQ(live->possible, fresh_answer->possible);
          EXPECT_EQ(live->worlds_used, fresh_answer->worlds_used)
              << query.ToString();
          EXPECT_EQ(live->confidences.entries(),
                    fresh_answer->confidences.entries())
              << query.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace psc
