// Unit tests for the compiled query-evaluation layer (query_plan.h /
// eval_index.h): join ordering, slot assignment, built-in hoisting, the
// plan memo cache, lazy index construction and generation-based
// invalidation. Randomized differential coverage against the oracle
// lives in eval_differential_test.cc.

#include "psc/relational/query_plan.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/eval_oracle.h"
#include "psc/obs/metrics.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/relational/eval_index.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::Q;

class EvalPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eval::ClearQueryPlanCache();
    obs::GlobalMetrics().Reset();
  }
  void TearDown() override {
    eval::ClearQueryPlanCache();
    obs::GlobalMetrics().Reset();
  }

  /// Evaluates `query` on `db` with the compiled engine and the oracle and
  /// returns the (asserted equal) result.
  Relation BothEngines(const ConjunctiveQuery& query, const Database& db) {
    auto compiled = query.Evaluate(db);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto reference = oracle::Evaluate(query, db);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(*compiled, *reference)
        << "engines disagree on " << query.ToString();
    return std::move(compiled).ValueOrDie();
  }
};

TEST_F(EvalPlanTest, GreedyJoinOrderStartsAtConstantsThenFollowsBindings) {
  // T(x, 7) has a constant, so it goes first; that binds x, making
  // R(x, z) the next most-bound atom; S(z, y) joins last on z.
  const auto query = Q("V(y) <- R(x, z), S(z, y), T(x, 7)");
  const auto plan = eval::QueryPlan::Compile(query, {});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->num_slots(), 3u);  // x, z, y
  EXPECT_EQ(plan->join_order(), (std::vector<size_t>{2, 0, 1}));
  // Every step arrives with at least one bound position.
  EXPECT_EQ(plan->num_probe_steps(), 3u);
}

TEST_F(EvalPlanTest, TieBreaksPreserveOriginalAtomOrder) {
  // No constants and no shared variables: nothing to distinguish the
  // atoms, so the plan must keep the written order (determinism).
  const auto plan =
      eval::QueryPlan::Compile(Q("V(x, y, z) <- A(x), B(y), C(z)"), {});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->join_order(), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(plan->num_probe_steps(), 0u);  // pure Cartesian: all scans
}

TEST_F(EvalPlanTest, PreboundVariablesCountAsBoundFromStepZero) {
  // With y prebound, S(y, z) is the most-bound atom even though it is
  // written second.
  const auto query = Q("V(x, z) <- R(x), S(y, z), T(x, y)");
  const auto unbound = eval::QueryPlan::Compile(query, {});
  const auto bound = eval::QueryPlan::Compile(query, {"y"});
  ASSERT_NE(unbound, nullptr);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(unbound->join_order().front(), 0u);
  EXPECT_EQ(bound->join_order().front(), 1u);
  EXPECT_GT(bound->num_probe_steps(), 0u);
}

TEST_F(EvalPlanTest, BuiltinsHoistToEarliestBoundStep) {
  // After(x, 5) only needs x, which step 0 binds, so it runs before
  // step 1. DebugString is the designated introspection surface for
  // hoisting.
  const auto plan =
      eval::QueryPlan::Compile(Q("V(x, y) <- R(x), S(y), After(x, 5)"), {});
  ASSERT_NE(plan, nullptr);
  const std::string debug = plan->DebugString();
  EXPECT_NE(debug.find("builtin@1"), std::string::npos) << debug;
  EXPECT_EQ(debug.find("builtin@2"), std::string::npos) << debug;
}

TEST_F(EvalPlanTest, GroundBuiltinsRunBeforeAnyJoinStep) {
  const auto plan =
      eval::QueryPlan::Compile(Q("V(x) <- R(x), After(9, 5)"), {});
  ASSERT_NE(plan, nullptr);
  EXPECT_NE(plan->DebugString().find("builtin@0"), std::string::npos)
      << plan->DebugString();

  // And a false ground built-in empties the result without touching R.
  Database db;
  db.AddFact("R", {Value(int64_t{1})});
  const auto query = Q("V(x) <- R(x), After(1, 5)");
  const auto result = query.Evaluate(db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
}

TEST_F(EvalPlanTest, EvaluateMatchesLegacyOnJoinsConstantsAndRepeatedVars) {
  Database db;
  for (int64_t i = 0; i < 6; ++i) {
    db.AddFact("E", {Value(i), Value((i + 1) % 6)});
    db.AddFact("E", {Value(i), Value(i)});
    db.AddFact("L", {Value(i), Value("n" + std::to_string(i % 2))});
  }
  for (const char* text : {
           "V(x, z) <- E(x, y), E(y, z)",
           "V(x) <- E(x, x)",
           "V(y) <- E(2, y)",
           "V(x, n) <- E(x, y), L(y, n)",
           "V(x, n) <- E(x, y), L(y, n), Eq(n, \"n1\")",
           "V(x, y) <- E(x, y), Before(x, y)",
       }) {
    const Relation result = BothEngines(Q(text), db);
    if (std::string(text) == "V(x) <- E(x, x)") {
      EXPECT_EQ(result.size(), 6u);
    }
  }
}

TEST_F(EvalPlanTest, ForEachPassesNonQueryBindingsThrough) {
  Database db;
  db.AddFact("R", {Value(int64_t{1})});
  db.AddFact("R", {Value(int64_t{2})});
  const auto query = Q("V(x) <- R(x)");
  Valuation initial;
  initial["foreign"] = Value("keep-me");
  std::vector<Valuation> seen;
  auto ok = query.ForEachValuation(db, initial, [&](const Valuation& v) {
    seen.push_back(v);
    return true;
  });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(seen.size(), 2u);
  for (const Valuation& v : seen) {
    ASSERT_EQ(v.count("foreign"), 1u);
    EXPECT_EQ(v.at("foreign"), Value("keep-me"));
    EXPECT_EQ(v.count("x"), 1u);
  }
}

TEST_F(EvalPlanTest, ForEachHonorsInitialQueryVariableBindings) {
  Database db;
  for (int64_t i = 0; i < 4; ++i)
    db.AddFact("E", {Value(i), Value(i + 10)});
  const auto query = Q("V(x, y) <- E(x, y)");
  Valuation initial;
  initial["x"] = Value(int64_t{2});
  size_t count = 0;
  auto ok = query.ForEachValuation(db, initial, [&](const Valuation& v) {
    EXPECT_EQ(v.at("x"), Value(int64_t{2}));
    EXPECT_EQ(v.at("y"), Value(int64_t{12}));
    ++count;
    return true;
  });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(count, 1u);
}

TEST_F(EvalPlanTest, ForEachEarlyStopReturnsFalse) {
  Database db;
  for (int64_t i = 0; i < 8; ++i) db.AddFact("R", {Value(i)});
  const auto query = Q("V(x) <- R(x)");
  size_t count = 0;
  auto stopped = query.ForEachValuation(db, {}, [&](const Valuation&) {
    return ++count < 3;
  });
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_FALSE(*stopped);
  EXPECT_EQ(count, 3u);
}

TEST_F(EvalPlanTest, WitnessValuationsSortedAndEngineIndependent) {
  Database db;
  for (int64_t i = 0; i < 5; ++i) {
    db.AddFact("E", {Value(i), Value(int64_t{42})});
  }
  const auto query = Q("V(y) <- E(x, y)");
  const Tuple target{Value(int64_t{42})};

  auto compiled = query.WitnessValuations(db, target);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  PSC_ASSERT_OK_AND_ASSIGN(const auto initial, query.UnifyHead(target));
  ASSERT_TRUE(initial.has_value());
  std::vector<Valuation> reference;
  PSC_ASSERT_OK(oracle::ForEachValuation(query, db, *initial,
                                         [&](const Valuation& valuation) {
                                           reference.push_back(valuation);
                                           return true;
                                         })
                    .status());
  std::sort(reference.begin(), reference.end());

  EXPECT_EQ(*compiled, reference);
  EXPECT_TRUE(std::is_sorted(compiled->begin(), compiled->end()));
  EXPECT_EQ(compiled->size(), 5u);
}

TEST_F(EvalPlanTest, PlanCacheMemoizesByQueryAndBoundSet) {
  const auto query = Q("V(x, y) <- E(x, y)");
  EXPECT_EQ(eval::QueryPlanCacheSize(), 0u);
  const auto p1 = eval::GetOrCompilePlan(query, {});
  const auto p2 = eval::GetOrCompilePlan(query, {});
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(eval::QueryPlanCacheSize(), 1u);

  // A different bound-variable set is a different plan...
  Valuation bound;
  bound["x"] = Value(int64_t{0});
  const auto p3 = eval::GetOrCompilePlan(query, bound);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(eval::QueryPlanCacheSize(), 2u);

  // ...but non-query variables do not perturb the key.
  Valuation foreign;
  foreign["not_in_query"] = Value(int64_t{0});
  EXPECT_EQ(eval::GetOrCompilePlan(query, foreign).get(), p1.get());
  EXPECT_EQ(eval::QueryPlanCacheSize(), 2u);

  eval::ClearQueryPlanCache();
  EXPECT_EQ(eval::QueryPlanCacheSize(), 0u);
}

/// Builds a chain database large enough that the evaluator indexes it
/// (every relation well above kMinIndexedRelationSize).
Database ChainDb(int64_t n) {
  Database db;
  for (int64_t i = 0; i < n; ++i) {
    db.AddFact("E", {Value(i), Value((i + 1) % n)});
  }
  return db;
}

TEST_F(EvalPlanTest, IndexCacheIsLazyAndSharedAcrossEvaluations) {
  const Database db = ChainDb(64);
  const auto query = Q("V(x, z) <- E(x, y), E(y, z)");

  PSC_ASSERT_OK_AND_ASSIGN(const Relation r1, query.Evaluate(db));
  const size_t entries_after_first = db.index_cache().size();
  EXPECT_GT(entries_after_first, 0u);

  // Re-evaluating reuses the cached index: same entry count, same result.
  PSC_ASSERT_OK_AND_ASSIGN(const Relation r2, query.Evaluate(db));
  EXPECT_EQ(db.index_cache().size(), entries_after_first);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1.size(), 64u);
}

TEST_F(EvalPlanTest, MutationInvalidatesIndexesViaGeneration) {
  Database db = ChainDb(32);
  const auto query = Q("V(x, z) <- E(x, y), E(y, z)");
  const uint64_t gen_before = db.generation();

  PSC_ASSERT_OK_AND_ASSIGN(const Relation before, query.Evaluate(db));
  EXPECT_EQ(before.size(), 32u);

  // A genuinely new fact bumps the generation; re-inserting an existing
  // fact must not (the cached indexes stay valid).
  ASSERT_FALSE(db.AddFact("E", {Value(int64_t{0}), Value(int64_t{1})}));
  EXPECT_EQ(db.generation(), gen_before);
  ASSERT_TRUE(db.AddFact("E", {Value(int64_t{0}), Value(int64_t{16})}));
  EXPECT_GT(db.generation(), gen_before);

  // The stale index must not be probed: the new edge creates new paths.
  PSC_ASSERT_OK_AND_ASSIGN(const Relation after, query.Evaluate(db));
  EXPECT_GT(after.size(), before.size());
  EXPECT_TRUE(after.count({Value(int64_t{0}), Value(int64_t{17})}));

  // And removal invalidates too.
  ASSERT_TRUE(db.RemoveFact(Fact("E", {Value(int64_t{0}), Value(int64_t{16})})));
  PSC_ASSERT_OK_AND_ASSIGN(const Relation reverted, query.Evaluate(db));
  EXPECT_EQ(reverted, before);
}

TEST_F(EvalPlanTest, TinyRelationsAreScannedNotIndexed) {
  // Below kMinIndexedRelationSize no index is built even though the plan
  // has probe steps.
  Database db = ChainDb(static_cast<int64_t>(eval::kMinIndexedRelationSize) - 2);
  const auto query = Q("V(x, z) <- E(x, y), E(y, z)");
  PSC_ASSERT_OK_AND_ASSIGN(const Relation r, query.Evaluate(db));
  EXPECT_EQ(r.size(), eval::kMinIndexedRelationSize - 2);
  EXPECT_EQ(db.index_cache().size(), 0u);
}

TEST_F(EvalPlanTest, CopyDoesNotCarryTheIndexCache) {
  const Database db = ChainDb(32);
  const auto query = Q("V(x, z) <- E(x, y), E(y, z)");
  PSC_ASSERT_OK_AND_ASSIGN(const Relation r1, query.Evaluate(db));
  EXPECT_GT(db.index_cache().size(), 0u);

  const Database copy = db;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.index_cache().size(), 0u);
  PSC_ASSERT_OK_AND_ASSIGN(const Relation r2, query.Evaluate(copy));
  EXPECT_EQ(r1, r2);
}

#if PSC_OBS_ENABLED

TEST_F(EvalPlanTest, ObsCountersTrackPlansIndexesAndProbes) {
  const Database db = ChainDb(64);
  const auto query = Q("V(x, z) <- E(x, y), E(y, z)");
  auto& metrics = obs::GlobalMetrics();

  PSC_ASSERT_OK_AND_ASSIGN(const Relation r1, query.Evaluate(db));
  EXPECT_EQ(metrics.CounterValue("eval.plan_cache.misses"), 1u);
  EXPECT_EQ(metrics.CounterValue("eval.execs.compiled"), 1u);
  const uint64_t builds = metrics.CounterValue("eval.index.builds");
  EXPECT_GT(builds, 0u);
  EXPECT_GT(metrics.CounterValue("eval.probes"), 0u);

  // Second evaluation: plan-cache hit, no new index builds.
  PSC_ASSERT_OK_AND_ASSIGN(const Relation r2, query.Evaluate(db));
  EXPECT_EQ(metrics.CounterValue("eval.plan_cache.hits"), 1u);
  EXPECT_EQ(metrics.CounterValue("eval.index.builds"), builds);
  EXPECT_GT(metrics.CounterValue("eval.index.hits"), 0u);
  EXPECT_EQ(r1, r2);
}

#endif  // PSC_OBS_ENABLED

}  // namespace
}  // namespace psc
