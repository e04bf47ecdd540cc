// Differential property tests: the compiled slot-based evaluation engine
// (query_plan.h) must be observably identical to the nested-loop reference
// interpreter (oracle/eval_oracle.h) on randomly generated query/database
// pairs — including built-in-heavy queries, Cartesian products, evaluation
// under database mutation (index invalidation) and the QuerySystem
// surface at different thread counts. Seeds are printed on failure for
// replay.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/eval_oracle.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/relational/query_plan.h"
#include "psc/util/random.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::Q;

class EvalDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override { eval::ClearQueryPlanCache(); }
  void TearDown() override { eval::ClearQueryPlanCache(); }
};

constexpr const char* kBuiltins[] = {"Lt", "Le", "Gt", "Ge",
                                     "Eq", "Ne", "After", "Before"};

struct RandomInstance {
  ConjunctiveQuery query;
  Database db;
};

/// A random conjunctive query over relations R0/R1/R2 (arities 1/2/3) with
/// `num_atoms` relational atoms and up to `num_builtins` built-in filters,
/// plus a database sized so at least one relation crosses the indexing
/// threshold. Construction guarantees safety/range-restriction, so Create
/// always succeeds.
RandomInstance MakeRandomInstance(Rng& rng, size_t num_atoms,
                                  size_t num_builtins, int64_t domain,
                                  size_t tuples_per_relation) {
  const size_t kArity[] = {1, 2, 3};
  const std::vector<std::string> vars = {"a", "b", "c", "d", "e", "f"};

  std::vector<Atom> body;
  std::vector<std::string> bound;  // variables occurring in relational atoms
  for (size_t i = 0; i < num_atoms; ++i) {
    const size_t rel = static_cast<size_t>(rng.UniformInt(0, 2));
    std::vector<Term> terms;
    for (size_t p = 0; p < kArity[rel]; ++p) {
      if (rng.Bernoulli(0.15)) {
        terms.push_back(Term::ConstInt(rng.UniformInt(0, domain - 1)));
      } else {
        const std::string& v =
            vars[static_cast<size_t>(rng.UniformInt(0, 5))];
        terms.push_back(Term::Var(v));
        bound.push_back(v);
      }
    }
    // Guarantee at least one variable somewhere so the head is non-trivial.
    if (bound.empty() && i + 1 == num_atoms) {
      terms.back() = Term::Var(vars[0]);
      bound.push_back(vars[0]);
    }
    body.emplace_back("R" + std::to_string(rel), std::move(terms));
  }

  for (size_t i = 0; i < num_builtins && !bound.empty(); ++i) {
    const std::string pred =
        kBuiltins[static_cast<size_t>(rng.UniformInt(0, 7))];
    auto arg = [&]() -> Term {
      if (rng.Bernoulli(0.4))
        return Term::ConstInt(rng.UniformInt(0, domain - 1));
      return Term::Var(
          bound[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(bound.size()) - 1))]);
    };
    body.emplace_back(pred, std::vector<Term>{arg(), arg()});
  }

  // Head: 1–3 bound variables (duplicates allowed — exercises repeated
  // head variables), or a constant head when nothing is bound.
  std::vector<Term> head_terms;
  if (bound.empty()) {
    head_terms.push_back(Term::ConstInt(0));
  } else {
    const int64_t head_arity = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < head_arity; ++i) {
      head_terms.push_back(Term::Var(
          bound[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(bound.size()) - 1))]));
    }
  }

  auto query = ConjunctiveQuery::Create(Atom("V", std::move(head_terms)),
                                        std::move(body));
  EXPECT_TRUE(query.ok()) << query.status().ToString();

  Database db;
  for (size_t rel = 0; rel < 3; ++rel) {
    for (size_t t = 0; t < tuples_per_relation; ++t) {
      Tuple tuple;
      for (size_t p = 0; p < kArity[rel]; ++p) {
        tuple.push_back(Value(rng.UniformInt(0, domain - 1)));
      }
      db.AddFact("R" + std::to_string(rel), std::move(tuple));
    }
  }
  return {std::move(query).ValueOrDie(), std::move(db)};
}

/// All valuations enumerated for (query, db, initial) by the compiled
/// engine, or by the oracle when `compiled` is false, as a canonical set.
std::set<Valuation> CollectValuations(const ConjunctiveQuery& query,
                                      const Database& db,
                                      const Valuation& initial,
                                      bool compiled) {
  std::set<Valuation> out;
  const auto collect = [&](const Valuation& v) {
    out.insert(v);
    return true;
  };
  auto status = compiled
                    ? query.ForEachValuation(db, initial, collect)
                    : oracle::ForEachValuation(query, db, initial, collect);
  EXPECT_TRUE(status.ok()) << status.status().ToString();
  return out;
}

/// Asserts the compiled engine and the oracle agree on Evaluate and on
/// the valuation set, with and without an initial binding.
void ExpectEnginesAgree(const ConjunctiveQuery& query, const Database& db,
                        const Valuation& initial, uint64_t seed) {
  auto compiled_eval = query.Evaluate(db);
  const auto compiled_vals = CollectValuations(query, db, {}, true);
  const auto compiled_bound = CollectValuations(query, db, initial, true);

  auto oracle_eval = oracle::Evaluate(query, db);
  const auto oracle_vals = CollectValuations(query, db, {}, false);
  const auto oracle_bound = CollectValuations(query, db, initial, false);

  ASSERT_TRUE(compiled_eval.ok()) << compiled_eval.status().ToString();
  ASSERT_TRUE(oracle_eval.ok()) << oracle_eval.status().ToString();
  EXPECT_EQ(*compiled_eval, *oracle_eval)
      << "Evaluate mismatch, seed=" << seed << " query=" << query.ToString();
  EXPECT_EQ(compiled_vals, oracle_vals)
      << "valuation mismatch, seed=" << seed << " query=" << query.ToString();
  EXPECT_EQ(compiled_bound, oracle_bound)
      << "bound-valuation mismatch, seed=" << seed
      << " query=" << query.ToString();
}

TEST_F(EvalDifferentialTest, HundredRandomInstancesAgree) {
  constexpr uint64_t kBaseSeed = 0x5eed0001;
  for (uint64_t round = 0; round < 100; ++round) {
    const uint64_t seed = MixSeed(kBaseSeed, round);
    Rng rng(seed);
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " seed=" + std::to_string(seed));
    // Mix sizes: some databases well above the indexing threshold, some
    // below (scan path), domains tight enough to make joins selective.
    const size_t num_atoms = static_cast<size_t>(rng.UniformInt(1, 3));
    const size_t num_builtins = static_cast<size_t>(rng.UniformInt(0, 2));
    const int64_t domain = rng.UniformInt(3, 8);
    const size_t tuples = static_cast<size_t>(rng.UniformInt(4, 40));
    auto instance =
        MakeRandomInstance(rng, num_atoms, num_builtins, domain, tuples);

    Valuation initial;
    const auto query_vars = instance.query.Variables();
    if (!query_vars.empty() && rng.Bernoulli(0.5)) {
      initial[*query_vars.begin()] = Value(rng.UniformInt(0, domain - 1));
    }
    initial["extra_var"] = Value("passthrough");

    ExpectEnginesAgree(instance.query, instance.db, initial, seed);
  }
}

TEST_F(EvalDifferentialTest, BuiltinHeavyInstancesAgree) {
  constexpr uint64_t kBaseSeed = 0x5eed0002;
  for (uint64_t round = 0; round < 25; ++round) {
    const uint64_t seed = MixSeed(kBaseSeed, round);
    Rng rng(seed);
    SCOPED_TRACE("round=" + std::to_string(round) +
                 " seed=" + std::to_string(seed));
    // More built-ins than relational atoms: hoisting and ground filters
    // dominate the plan.
    auto instance = MakeRandomInstance(rng, /*num_atoms=*/2,
                                       /*num_builtins=*/4, /*domain=*/6,
                                       /*tuples_per_relation=*/24);
    ExpectEnginesAgree(instance.query, instance.db, {}, seed);
  }
}

TEST_F(EvalDifferentialTest, CartesianProductsAgree) {
  // Disjoint variable sets defeat the join-ordering heuristic entirely;
  // the engines must still enumerate the same product.
  Database db;
  for (int64_t i = 0; i < 20; ++i) {
    db.AddFact("R0", {Value(i)});
    db.AddFact("R1", {Value(i), Value(i + 100)});
  }
  for (const char* text : {
           "V(x, y) <- R0(x), R1(y, z)",
           "V(x, y, z) <- R0(x), R0(y), R0(z), Before(x, y), Before(y, z)",
           "V(x, w) <- R1(x, y), R1(z, w)",
       }) {
    SCOPED_TRACE(text);
    ExpectEnginesAgree(Q(text), db, {}, 0);
  }
}

TEST_F(EvalDifferentialTest, MutationSequenceKeepsEnginesInAgreement) {
  constexpr uint64_t kSeed = 0x5eed0003;
  Rng rng(kSeed);
  auto instance = MakeRandomInstance(rng, /*num_atoms=*/2, /*num_builtins=*/1,
                                     /*domain=*/6, /*tuples_per_relation=*/32);
  // Interleave evaluations with mutations: every evaluation after a
  // mutation must see the new facts (stale indexes would diverge from the
  // oracle, which scans fresh state every time).
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("mutation step " + std::to_string(step));
    ExpectEnginesAgree(instance.query, instance.db, {}, kSeed);
    const std::string rel = "R" + std::to_string(rng.UniformInt(0, 2));
    const size_t arity = rel == "R0" ? 1 : rel == "R1" ? 2 : 3;
    Tuple tuple;
    for (size_t p = 0; p < arity; ++p)
      tuple.push_back(Value(rng.UniformInt(0, 5)));
    if (rng.Bernoulli(0.3)) {
      instance.db.RemoveFact(Fact(rel, tuple));
    } else {
      instance.db.AddFact(rel, tuple);
    }
  }
}

TEST_F(EvalDifferentialTest, QuerySystemIdenticalAcrossEnginesAndThreads) {
  // End-to-end: exact answers (confidences, certain, possible) at 1 and 4
  // threads must be bit-identical to a reference answer that evaluates the
  // query with the oracle in every possible world.
  auto make_collection = [] {
    // Known-satisfiable measures (same shape as the obs integration test).
    return MakeUnaryCollection(
        {MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
         MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  };
  const auto domain = testing::IntDomain(3);
  const auto query = Q("V(x, y) <- R(x), R(y), Before(x, y)");

  const SourceCollection collection = make_collection();
  PSC_ASSERT_OK_AND_ASSIGN(const IdentityInstance instance,
                           IdentityInstance::Create(collection, domain));
  std::map<Tuple, uint64_t> counts;
  uint64_t worlds = 0;
  Status oracle_status;
  const auto visited = IdentityWorldEnumerator(&instance).ForEachWorld(
      [&](const Database& world) {
        auto answers = oracle::Evaluate(query, world);
        if (!answers.ok()) {
          oracle_status = answers.status();
          return false;
        }
        for (const Tuple& tuple : *answers) ++counts[tuple];
        ++worlds;
        return true;
      });
  ASSERT_TRUE(visited.ok()) << visited.status().ToString();
  PSC_ASSERT_OK(oracle_status);
  ASSERT_GT(worlds, 0u);
  QueryAnswer expected;
  expected.worlds_used = worlds;
  expected.confidences = ProbRelation(query.head().arity());
  for (const auto& [tuple, count] : counts) {
    expected.possible.insert(tuple);
    if (count == worlds) expected.certain.insert(tuple);
    PSC_ASSERT_OK(expected.confidences.Insert(
        tuple, static_cast<double>(count) / static_cast<double>(worlds)));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    QuerySystem::Options options;
    options.threads = threads;
    PSC_ASSERT_OK_AND_ASSIGN(auto system,
                             QuerySystem::Create(make_collection(), options));
    PSC_ASSERT_OK_AND_ASSIGN(auto answer, system.AnswerExact(query, domain));
    EXPECT_EQ(answer.certain, expected.certain);
    EXPECT_EQ(answer.possible, expected.possible);
    EXPECT_EQ(answer.confidences.entries(), expected.confidences.entries());
    EXPECT_EQ(answer.worlds_used, expected.worlds_used);
  }
}

}  // namespace
}  // namespace psc
