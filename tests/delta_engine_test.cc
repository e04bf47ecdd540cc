// Unit tests for the incremental delta engine: Database/SourceCollection
// batched deltas, per-relation generations, in-place index maintenance,
// delta scripts, and the IncrementalSystem invalidation ladder.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/delta/delta_script.h"
#include "psc/delta/incremental.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/relational/eval_index.h"
#include "psc/source/source_collection.h"
#include "psc/tableau/template_builder.h"
#include "psc/util/rational.h"

namespace psc {
namespace {

Tuple T(int64_t a) { return {Value(a)}; }
Tuple T(int64_t a, int64_t b) { return {Value(a), Value(b)}; }

ConjunctiveQuery Q(const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return *std::move(query);
}

SourceDescriptor MakeSource(const std::string& name, const std::string& view,
                            std::vector<Tuple> tuples, Rational completeness,
                            Rational soundness) {
  Relation extension(tuples.begin(), tuples.end());
  auto source = SourceDescriptor::Create(name, Q(view), std::move(extension),
                                         completeness, soundness);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return *std::move(source);
}

// ---------------------------------------------------------------------------
// Database::ApplyDelta
// ---------------------------------------------------------------------------

TEST(DatabaseDeltaTest, ApplyDeltaInsertsAndRetracts) {
  Database db;
  db.AddFact("R", T(1));
  db.AddFact("R", T(2));
  db.AddFact("S", T(1, 2));

  DatabaseDelta delta;
  delta.Insert("R", T(3));
  delta.Retract("R", T(1));
  delta.Retract("S", T(1, 2));
  const DeltaSummary summary = db.ApplyDelta(delta);

  EXPECT_EQ(summary.inserted, 1u);
  EXPECT_EQ(summary.retracted, 2u);
  EXPECT_EQ(summary.noops, 0u);
  EXPECT_TRUE(summary.changed());
  EXPECT_EQ(summary.DirtyRelations(), (std::vector<std::string>{"R", "S"}));

  EXPECT_FALSE(db.Contains("R", T(1)));
  EXPECT_TRUE(db.Contains("R", T(2)));
  EXPECT_TRUE(db.Contains("R", T(3)));
  // The emptied relation leaves no residue (operator== stays structural).
  EXPECT_TRUE(db.GetRelation("S").empty());
  EXPECT_EQ(db.RelationNames(), (std::vector<std::string>{"R"}));
}

TEST(DatabaseDeltaTest, InsertWinsOverRetractOfSameTuple) {
  Database db;
  db.AddFact("R", T(1));
  DatabaseDelta delta;
  delta.Insert("R", T(1));
  delta.Retract("R", T(1));  // dropped: the delta declares T(1) present
  const DeltaSummary summary = db.ApplyDelta(delta);
  EXPECT_EQ(summary.inserted, 0u);
  EXPECT_EQ(summary.retracted, 0u);
  EXPECT_EQ(summary.noops, 2u);
  EXPECT_TRUE(db.Contains("R", T(1)));
}

TEST(DatabaseDeltaTest, NoopDeltaLeavesGenerationsUntouched) {
  Database db;
  db.AddFact("R", T(1));
  const uint64_t generation = db.generation();
  const uint64_t r_generation = db.relation_generation("R");

  DatabaseDelta delta;
  delta.Insert("R", T(1));   // already present
  delta.Retract("R", T(9));  // never present
  const DeltaSummary summary = db.ApplyDelta(delta);

  EXPECT_FALSE(summary.changed());
  EXPECT_EQ(summary.noops, 2u);
  EXPECT_EQ(db.generation(), generation);
  EXPECT_EQ(db.relation_generation("R"), r_generation);
}

// Regression: before the delta engine, UnionWith bumped the generation (and
// thereby invalidated every cached index) even when it added nothing.
TEST(DatabaseDeltaTest, SubsetUnionIsACompleteNoop) {
  Database db;
  db.AddFact("R", T(1));
  db.AddFact("R", T(2));
  Database subset;
  subset.AddFact("R", T(1));

  const uint64_t generation = db.generation();
  db.UnionWith(subset);
  EXPECT_EQ(db.generation(), generation);

  // A union that does add tuples bumps exactly the gaining relations.
  Database more;
  more.AddFact("R", T(3));
  more.AddFact("S", T(1, 1));
  const uint64_t s_generation = db.relation_generation("S");
  db.UnionWith(more);
  EXPECT_GT(db.generation(), generation);
  EXPECT_GT(db.relation_generation("S"), s_generation);
}

TEST(DatabaseDeltaTest, NoopSingleFactMutationsLeaveGenerations) {
  Database db;
  db.AddFact("R", T(1));
  const uint64_t generation = db.generation();
  EXPECT_FALSE(db.AddFact("R", T(1)));
  EXPECT_FALSE(db.RemoveFact(Fact("R", T(7))));
  EXPECT_EQ(db.generation(), generation);
}

TEST(DatabaseDeltaTest, GenerationsAreRelationScoped) {
  Database db;
  db.AddFact("R", T(1));
  db.AddFact("S", T(1, 2));
  const uint64_t s_generation = db.relation_generation("S");
  db.AddFact("R", T(2));
  EXPECT_EQ(db.relation_generation("S"), s_generation);
  EXPECT_GT(db.relation_generation("R"), s_generation);
}

// ---------------------------------------------------------------------------
// In-place index maintenance
// ---------------------------------------------------------------------------

/// Evaluates `query` against `db` and against a fresh structurally-equal
/// database (whose indexes are built from scratch), expecting identical
/// results — the patched-index correctness oracle.
void ExpectFreshEquivalence(const Database& db, const ConjunctiveQuery& query) {
  Database fresh;
  for (const Fact& fact : db.AllFacts()) fresh.AddFact(fact);
  ASSERT_EQ(db, fresh);
  auto patched = query.Evaluate(db);
  auto rebuilt = query.Evaluate(fresh);
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*patched, *rebuilt);
}

TEST(IndexMaintenanceTest, PatchedIndexMatchesRebuiltIndex) {
  Database db;
  for (int64_t i = 0; i < 64; ++i) db.AddFact("E", T(i % 16, (i * 7) % 16));
  const ConjunctiveQuery query = Q("V(x, z) <- E(x, y), E(y, z)");
  ASSERT_TRUE(query.Evaluate(db).ok());  // warm the index cache

  const uint64_t builds = obs::GlobalMetrics().CounterValue("eval.index.builds");
  DatabaseDelta delta;
  delta.Insert("E", T(20, 21));
  delta.Insert("E", T(21, 22));
  delta.Retract("E", T(0, 0));
  db.ApplyDelta(delta);
  ExpectFreshEquivalence(db, query);
  // The live database's index was patched, never rebuilt: the only build
  // recorded is the fresh oracle database's. (Counter assertions need the
  // instrumentation compiled in; the equivalence oracle above does not.)
#if PSC_OBS_ENABLED
  EXPECT_EQ(obs::GlobalMetrics().CounterValue("eval.index.builds"),
            builds + 1);
#else
  (void)builds;
#endif
}

TEST(IndexMaintenanceTest, SingleFactMutationsPatchWarmIndexes) {
  Database db;
  for (int64_t i = 0; i < 64; ++i) db.AddFact("E", T(i, i + 1));
  const ConjunctiveQuery query = Q("V(x, z) <- E(x, y), E(y, z)");
  ASSERT_TRUE(query.Evaluate(db).ok());
  db.AddFact("E", T(100, 101));
  db.RemoveFact(Fact("E", T(0, 1)));
  ExpectFreshEquivalence(db, query);
}

TEST(IndexMaintenanceTest, HighChurnFallsBackToRebuild) {
  Database db;
  for (int64_t i = 0; i < 64; ++i) db.AddFact("E", T(i, i + 1));
  const ConjunctiveQuery query = Q("V(x, z) <- E(x, y), E(y, z)");
  ASSERT_TRUE(query.Evaluate(db).ok());

  const uint64_t rebuilds =
      obs::GlobalMetrics().CounterValue("delta.index.rebuilds");
  DatabaseDelta delta;  // churn 64 > size_after/4: drop, don't patch
  for (int64_t i = 0; i < 32; ++i) {
    delta.Retract("E", T(i, i + 1));
    delta.Insert("E", T(200 + i, 201 + i));
  }
  db.ApplyDelta(delta);
#if PSC_OBS_ENABLED
  EXPECT_GT(obs::GlobalMetrics().CounterValue("delta.index.rebuilds"),
            rebuilds);
#else
  (void)rebuilds;
#endif
  ExpectFreshEquivalence(db, query);
}

TEST(IndexMaintenanceTest, WholesaleInvalidationStillWorks) {
  Database db;
  for (int64_t i = 0; i < 32; ++i) db.AddFact("E", T(i, i + 1));
  const ConjunctiveQuery query = Q("V(x, z) <- E(x, y), E(y, z)");
  ASSERT_TRUE(query.Evaluate(db).ok());
  EXPECT_GT(db.index_cache().size(), 0u);
  db.InvalidateIndexCache();
  EXPECT_EQ(db.index_cache().size(), 0u);
  ExpectFreshEquivalence(db, query);
}

// ---------------------------------------------------------------------------
// SourceCollection::ApplyDelta
// ---------------------------------------------------------------------------

SourceCollection TwoMirrors() {
  std::vector<SourceDescriptor> sources;
  sources.push_back(MakeSource("S1", "V1(x) <- R(x)", {T(1), T(2)},
                               Rational(1, 16), Rational(1, 2)));
  sources.push_back(MakeSource("S2", "V2(x) <- R(x)", {T(2), T(3)},
                               Rational(1, 16), Rational(1, 2)));
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return *std::move(collection);
}

TEST(CollectionDeltaTest, ApplyDeltaBumpsOnlyDirtySources) {
  SourceCollection collection = TwoMirrors();
  EXPECT_EQ(collection.generation(), 0u);

  CollectionDelta delta;
  delta.Insert("S1", T(9));
  auto summary = collection.ApplyDelta(delta);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->inserted, 1u);
  EXPECT_EQ(summary->DirtySources(), (std::vector<std::string>{"S1"}));
  EXPECT_EQ(collection.generation(), 1u);
  EXPECT_EQ(collection.source_generation(0), 1u);
  EXPECT_EQ(collection.source_generation(1), 0u);
  EXPECT_TRUE(collection.source(0).extension().count(T(9)) > 0);
}

TEST(CollectionDeltaTest, NoopDeltaLeavesGenerations) {
  SourceCollection collection = TwoMirrors();
  CollectionDelta delta;
  delta.Insert("S1", T(1));   // already present
  delta.Retract("S2", T(9));  // never present
  auto summary = collection.ApplyDelta(delta);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->changed());
  EXPECT_EQ(summary->noops, 2u);
  EXPECT_EQ(collection.generation(), 0u);
}

TEST(CollectionDeltaTest, ValidationIsAllOrNothing) {
  SourceCollection collection = TwoMirrors();

  CollectionDelta unknown;
  unknown.Insert("S1", T(9));
  unknown.Insert("Nope", T(1));
  EXPECT_FALSE(collection.ApplyDelta(unknown).ok());
  // The valid half of the failed delta was not applied.
  EXPECT_EQ(collection.source(0).extension().count(T(9)), 0u);
  EXPECT_EQ(collection.generation(), 0u);

  CollectionDelta arity;
  arity.Insert("S1", T(9));
  arity.Insert("S2", T(1, 2));  // head arity is 1
  EXPECT_FALSE(collection.ApplyDelta(arity).ok());
  EXPECT_EQ(collection.source(0).extension().count(T(9)), 0u);
  EXPECT_EQ(collection.generation(), 0u);
}

TEST(TemplateBuilderTest, IsAllowableChecksSizeAndMembership) {
  SourceCollection collection = TwoMirrors();  // thresholds ⌈|v|/2⌉ = 1
  TemplateBuilder builder(&collection);

  Combination ok(2);
  ok[0] = {T(1)};
  ok[1] = {T(2), T(3)};
  EXPECT_TRUE(builder.IsAllowable(ok));

  Combination too_small(2);
  too_small[0] = {};  // below t₁ = 1
  too_small[1] = {T(2)};
  EXPECT_FALSE(builder.IsAllowable(too_small));

  Combination not_subset(2);
  not_subset[0] = {T(9)};  // ∉ v₁
  not_subset[1] = {T(2)};
  EXPECT_FALSE(builder.IsAllowable(not_subset));

  EXPECT_FALSE(builder.IsAllowable(Combination(1)));  // wrong source count
}

// ---------------------------------------------------------------------------
// Delta scripts
// ---------------------------------------------------------------------------

TEST(DeltaScriptTest, ParsesBatchesCommentsAndBlanks) {
  auto batches = delta::ParseDeltaScript(
      "# drift day 1\n"
      "+ Cache(1, 2)\n"
      "- Cache(3, 4)  # evict\n"
      "\n"
      "--\n"
      "+ Mirror(7)\n"
      "--\n");  // trailing separator: no empty batch
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), 2u);
  EXPECT_EQ((*batches)[0].sources.at("Cache").inserts.count(T(1, 2)), 1u);
  EXPECT_EQ((*batches)[0].sources.at("Cache").retracts.count(T(3, 4)), 1u);
  EXPECT_EQ((*batches)[1].sources.at("Mirror").inserts.count(T(7)), 1u);
}

TEST(DeltaScriptTest, ErrorsCarryLineNumbers) {
  auto missing_op = delta::ParseDeltaScript("+ A(1)\nA(2)\n");
  ASSERT_FALSE(missing_op.ok());
  EXPECT_NE(missing_op.status().message().find("line 2"), std::string::npos);

  auto bad_fact = delta::ParseDeltaScript("+ A(x)\n");  // variables forbidden
  EXPECT_FALSE(bad_fact.ok());

  auto file = delta::ParseDeltaScriptFile("/nonexistent/deltas.txt");
  EXPECT_FALSE(file.ok());
}

// ---------------------------------------------------------------------------
// IncrementalSystem: the invalidation ladder
// ---------------------------------------------------------------------------

TEST(IncrementalSystemTest, CacheRevalidateRepairFullLadder) {
  auto system = delta::IncrementalSystem::Create(TwoMirrors());
  ASSERT_TRUE(system.ok()) << system.status().ToString();

  // First check is a full run; the second is served from cache.
  auto first = system->CheckConsistency();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->verdict, ConsistencyVerdict::kConsistent);
  ASSERT_TRUE(first->witness.has_value());
  auto cached = system->CheckConsistency();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached->method, "delta-cache");
  EXPECT_EQ(cached->verdict, ConsistencyVerdict::kConsistent);

  // Insert a witness fact into S1: the cached witness still satisfies the
  // dirty source (soundness and completeness both improve), so only a
  // dirty-scoped revalidation runs.
  const Relation& truth = first->witness->GetRelation("R");
  ASSERT_FALSE(truth.empty());
  CollectionDelta drift;
  drift.Insert("S1", *truth.begin());
  auto summary = system->ApplyDelta(drift);
  ASSERT_TRUE(summary.ok());
  auto revalidated = system->CheckConsistency();
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated->verdict, ConsistencyVerdict::kConsistent);
  if (summary->changed()) {
    EXPECT_EQ(revalidated->method, "delta-revalidate");
  }

  // Flood S1 with fresh junk: the witness D ⊆ {1,2,3} now covers at most 2
  // of S1's ≥6 tuples, below the s = 1/2 threshold, so revalidation fails —
  // but the identity repair (witness plus the dirty extension) restores a
  // possible world without entering the full pipeline.
  CollectionDelta junk;
  for (int64_t i = 0; i < 4; ++i) junk.Insert("S1", T(100 + i));
  ASSERT_TRUE(system->ApplyDelta(junk).ok());
  auto repaired = system->CheckConsistency();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_EQ(repaired->method, "delta-repair");
}

TEST(IncrementalSystemTest, RevalidationIsDirtyScoped) {
  // S2's exact bounds pin the witness to exactly {1, 2}, making every step
  // of this test deterministic.
  std::vector<SourceDescriptor> sources;
  sources.push_back(MakeSource("S1", "V1(x) <- R(x)", {T(1), T(2)},
                               Rational(0), Rational(1, 2)));
  sources.push_back(MakeSource("S2", "V2(x) <- R(x)", {T(1), T(2)},
                               Rational(1), Rational(1)));
  auto collection = SourceCollection::Create(std::move(sources));
  ASSERT_TRUE(collection.ok());
  auto system = delta::IncrementalSystem::Create(*collection);
  ASSERT_TRUE(system.ok());
  auto first = system->CheckConsistency();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->verdict, ConsistencyVerdict::kConsistent);

  // {1,2} still covers 2 of S1's 3 tuples (s = 1/2), so the cached witness
  // survives a check scoped to the one dirty source.
  CollectionDelta delta;
  delta.Insert("S1", T(3));
  ASSERT_TRUE(system->ApplyDelta(delta).ok());
  auto revalidated = system->CheckConsistency();
  ASSERT_TRUE(revalidated.ok());
  EXPECT_EQ(revalidated->method, "delta-revalidate");
  EXPECT_EQ(revalidated->verdict, ConsistencyVerdict::kConsistent);
  ASSERT_TRUE(revalidated->witness.has_value());
  EXPECT_EQ(*revalidated->witness, *first->witness);

  // Overwhelm S1 with junk: no world satisfies both S2's exact bounds
  // (D = {1,2}) and S1's soundness threshold, and the delta engine agrees
  // with the from-scratch verdict.
  CollectionDelta flood;
  for (int64_t i = 0; i < 4; ++i) flood.Insert("S1", T(10 + i));
  ASSERT_TRUE(system->ApplyDelta(flood).ok());
  auto inconsistent = system->CheckConsistency();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_EQ(inconsistent->verdict, ConsistencyVerdict::kInconsistent);
}

TEST(IncrementalSystemTest, RejectedDeltaInvalidatesNothing) {
  auto system = delta::IncrementalSystem::Create(TwoMirrors());
  ASSERT_TRUE(system.ok());
  ASSERT_TRUE(system->CheckConsistency().ok());
  const uint64_t generation = system->generation();

  CollectionDelta bad;
  bad.Insert("S1", T(5));
  bad.Insert("Nope", T(1));
  EXPECT_FALSE(system->ApplyDelta(bad).ok());
  EXPECT_EQ(system->generation(), generation);
  auto report = system->CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->method, "delta-cache");
}

TEST(IncrementalSystemTest, AnswerCacheHitsOnlyAtTheCachedGeneration) {
  // Two independent relation groups: mirrors of R and a mirror of W.
  std::vector<SourceDescriptor> sources;
  sources.push_back(MakeSource("S1", "V1(x) <- R(x)", {T(1), T(2)},
                               Rational(1, 8), Rational(1, 8)));
  sources.push_back(MakeSource("S2", "V2(x) <- W(x)", {T(3)}, Rational(1, 8),
                               Rational(1, 8)));
  auto collection = SourceCollection::Create(std::move(sources));
  ASSERT_TRUE(collection.ok());

  QuerySystem::Options options;
  options.threads = 1;
  auto system = delta::IncrementalSystem::Create(*collection, options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE(system->CheckConsistency().ok());

  const ConjunctiveQuery query = Q("Ans(x) <- R(x)");
  const std::vector<Value> domain = {Value(int64_t{1}), Value(int64_t{2}),
                                     Value(int64_t{3}), Value(int64_t{4})};
  auto computed = system->AnswerExact(query, domain);
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  EXPECT_FALSE(computed->from_cache);
  EXPECT_EQ(system->AnswerCacheSize(), 1u);

  auto hit = system->AnswerExact(query, domain);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
  EXPECT_EQ(hit->certain, computed->certain);
  EXPECT_EQ(hit->possible, computed->possible);
  EXPECT_EQ(hit->worlds_used, computed->worlds_used);

  // Mutating the W group leaves the R-group confidences alone but not the
  // world count, so the answer is recomputed...
  CollectionDelta other_group;
  other_group.Insert("S2", T(4));
  ASSERT_TRUE(system->ApplyDelta(other_group).ok());
  auto report = system->CheckConsistency();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  auto recomputed = system->AnswerExact(query, domain);
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->from_cache);
  EXPECT_EQ(recomputed->confidences.entries(),
            computed->confidences.entries());
  EXPECT_EQ(system->AnswerCacheSize(), 1u);

  // ...and cached again for its own generation.
  auto warm = system->AnswerExact(query, domain);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->worlds_used, recomputed->worlds_used);
}

TEST(IncrementalSystemTest, AnswerAfterAnotherGroupsDeltaCountsCurrentWorlds) {
  // R's group has 6 possible worlds over {1, 2, 3}; P's group has 3 before
  // the insert and 6 after it, so |poss(S)| goes from 18 to 36.
  std::vector<SourceDescriptor> sources;
  sources.push_back(MakeSource("S1", "V1(x) <- R(x)", {T(1), T(2)},
                               Rational(1, 2), Rational(1, 2)));
  sources.push_back(MakeSource("S2", "V2(x) <- P(x)", {T(1)}, Rational(1, 2),
                               Rational(1, 2)));
  auto collection = SourceCollection::Create(std::move(sources));
  ASSERT_TRUE(collection.ok());
  auto system = delta::IncrementalSystem::Create(*collection);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE(system->CheckConsistency().ok());

  const ConjunctiveQuery query = Q("Ans(x) <- R(x)");
  const std::vector<Value> domain = {Value(int64_t{1}), Value(int64_t{2}),
                                     Value(int64_t{3})};
  auto before = system->AnswerExact(query, domain);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->worlds_used, 18u);

  CollectionDelta delta;
  delta.Insert("S2", T(2));
  ASSERT_TRUE(system->ApplyDelta(delta).ok());
  auto report = system->CheckConsistency();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  auto after = system->AnswerExact(query, domain);
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  auto cold = QuerySystem::Create(system->CollectionSnapshot());
  ASSERT_TRUE(cold.ok());
  auto fresh = cold->AnswerExact(query, domain);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->worlds_used, 36u);
  EXPECT_EQ(after->worlds_used, fresh->worlds_used);
  EXPECT_EQ(after->confidences.entries(), fresh->confidences.entries());
  EXPECT_EQ(after->certain, fresh->certain);
  EXPECT_EQ(after->possible, fresh->possible);
}

TEST(WitnessRevalidationTest, OutOfRangeIndexIsAnError) {
  SourceCollection collection = TwoMirrors();
  Database witness;
  witness.AddFact("R", T(2));
  auto ok = WitnessSatisfiesSources(collection, witness, {0, 1});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  EXPECT_FALSE(WitnessSatisfiesSources(collection, witness, {2}).ok());
}

}  // namespace
}  // namespace psc
