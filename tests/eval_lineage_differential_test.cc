// Differential test of lineage answering. AnswerExact and AnswerMonteCarlo
// evaluate the query once over the fact universe (AlgebraExpr::EvalLineage)
// and answer every world from its fact ids. The oracle here is the
// per-world algorithm that does not use lineage: materialize each world
// through WorldSampler::Sample, IdentityWorldEnumerator::ForEachWorld or
// BruteForceWorldEnumerator::ForEachPossibleWorld, evaluate the plan in it
// with EvalInWorld, and count answer tuples in a std::map. Answers, plan
// errors and budget truncation must match it exactly at every thread
// count.

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "psc/algebra/expression.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/util/random.h"
#include "test_util.h"

namespace psc {
namespace {

using psc::testing::IntDomain;

// QuerySystem::Options defaults, which the oracle mirrors.
constexpr uint64_t kMaxShapes = uint64_t{1} << 26;
constexpr uint64_t kMaxWorlds = uint64_t{1} << 22;
constexpr size_t kMaxUniverseBits = 22;
constexpr uint64_t kBlockSamples = 64;
constexpr size_t kThreadCounts[] = {1, 2, 4};

/// Per-world answering: EvalInWorld on each materialized world, answer
/// tuples counted in a std::map.
class PerWorldAnswer {
 public:
  explicit PerWorldAnswer(AlgebraExprPtr query) : query_(std::move(query)) {}

  Status Add(const Database& world) {
    PSC_ASSIGN_OR_RETURN(const Relation answer, query_->EvalInWorld(world));
    for (const Tuple& tuple : answer) ++counts_[tuple];
    ++worlds_;
    return Status::OK();
  }

  uint64_t worlds() const { return worlds_; }

  Result<QueryAnswer> Finish(const std::string& method) const {
    if (worlds_ == 0) {
      return Status::Inconsistent(
          "poss(S) is empty: query answers are undefined");
    }
    QueryAnswer answer;
    answer.method = method;
    answer.worlds_used = worlds_;
    answer.confidences = ProbRelation(query_->OutputArity());
    for (const auto& [tuple, count] : counts_) {
      answer.possible.insert(tuple);
      if (count == worlds_) answer.certain.insert(tuple);
      PSC_RETURN_NOT_OK(answer.confidences.Insert(
          tuple, static_cast<double>(count) / static_cast<double>(worlds_)));
    }
    return answer;
  }

 private:
  AlgebraExprPtr query_;
  std::map<Tuple, uint64_t> counts_;
  uint64_t worlds_ = 0;
};

/// Budget for one call: unlimited, or a node budget.
limits::Budget CallBudget(uint64_t node_budget) {
  return node_budget == 0 ? limits::Budget()
                          : limits::Budget::WithNodeBudget(node_budget);
}

Result<QueryAnswer> OracleExact(const SourceCollection& collection,
                                const AlgebraExprPtr& query,
                                const std::vector<Value>& domain,
                                uint64_t node_budget) {
  const limits::Budget budget = CallBudget(node_budget);
  PerWorldAnswer answer(query);
  Status world_error;
  const auto consume = [&](const Database& world) {
    world_error = answer.Add(world);
    return world_error.ok();
  };
  if (collection.AllIdentityViews()) {
    PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                         IdentityInstance::Create(collection, domain));
    PSC_ASSIGN_OR_RETURN(
        const bool completed,
        IdentityWorldEnumerator(&instance).ForEachWorld(consume, kMaxWorlds,
                                                        kMaxShapes, budget));
    if (!completed) return world_error;
  } else {
    BruteForceWorldEnumerator::Options options;
    options.max_universe_bits = kMaxUniverseBits;
    options.budget = budget;
    PSC_ASSIGN_OR_RETURN(
        const bool completed,
        BruteForceWorldEnumerator(&collection, domain, options)
            .ForEachPossibleWorld(consume));
    if (!completed) return world_error;
  }
  return answer.Finish("exact-enumeration");
}

/// The sequential order of the 64-sample block layout: block b draws from
/// Rng(MixSeed(seed, b)); the budget covers the sampler build and one node
/// per sample.
Result<QueryAnswer> OracleMonteCarlo(const SourceCollection& collection,
                                     const AlgebraExprPtr& query,
                                     const std::vector<Value>& domain,
                                     uint64_t samples, uint64_t seed,
                                     uint64_t node_budget) {
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection, domain));
  const limits::Budget budget = CallBudget(node_budget);
  PSC_ASSIGN_OR_RETURN(const WorldSampler sampler,
                       WorldSampler::Create(&instance, kMaxShapes, budget));
  PerWorldAnswer answer(query);
  bool tripped = false;
  for (uint64_t block = 0; block * kBlockSamples < samples && !tripped;
       ++block) {
    Rng rng(MixSeed(seed, block));
    const uint64_t end = std::min(samples, (block + 1) * kBlockSamples);
    for (uint64_t i = block * kBlockSamples; i < end; ++i) {
      if (!budget.Charge()) {
        tripped = true;
        break;
      }
      PSC_RETURN_NOT_OK(answer.Add(sampler.Sample(&rng)));
    }
  }
  if (tripped && answer.worlds() == 0) return budget.ToStatus();
  PSC_ASSIGN_OR_RETURN(QueryAnswer result, answer.Finish("monte-carlo"));
  if (tripped) {
    result.truncated = true;
    result.truncation_reason = budget.ToStatus().message();
  }
  return result;
}

void ExpectSameAnswer(const Result<QueryAnswer>& actual,
                      const Result<QueryAnswer>& expected,
                      const std::string& context) {
  ASSERT_EQ(actual.ok(), expected.ok())
      << context << ": got " << actual.status().ToString() << ", oracle "
      << expected.status().ToString();
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
        << context;
    return;
  }
  EXPECT_EQ(actual->method, expected->method) << context;
  EXPECT_EQ(actual->worlds_used, expected->worlds_used) << context;
  EXPECT_EQ(actual->certain, expected->certain) << context;
  EXPECT_EQ(actual->possible, expected->possible) << context;
  EXPECT_EQ(actual->confidences.arity(), expected->confidences.arity())
      << context;
  EXPECT_EQ(actual->confidences.entries(), expected->confidences.entries())
      << context;
  EXPECT_EQ(actual->truncated, expected->truncated) << context;
  EXPECT_EQ(actual->truncation_reason, expected->truncation_reason)
      << context;
}

QuerySystem MakeSystem(const SourceCollection& collection, size_t threads,
                       uint64_t node_budget = 0) {
  QuerySystem::Options options;
  options.threads = threads;
  options.node_budget = node_budget;
  auto system = QuerySystem::Create(collection, options);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(system).ValueOrDie();
}

Condition Cmp(size_t column, const std::string& op, int64_t value) {
  return Condition::WithConstant(column, op, Value(value));
}

/// Plans over R (arity 1 or 2) and an absent relation M: projection,
/// selection on constants and built-ins, self-join, product, union, plus
/// plans that fail on some tuples only (an unknown built-in reached after
/// a selective condition, an out-of-range column) and one with two such
/// errors, whose order decides which a world meets.
std::vector<std::pair<std::string, AlgebraExprPtr>> Plans(size_t arity,
                                                          int64_t n) {
  const AlgebraExprPtr r = AlgebraExpr::Base("R", arity);
  const AlgebraExprPtr missing = AlgebraExpr::Base("M", arity);
  std::vector<std::pair<std::string, AlgebraExprPtr>> plans;
  plans.emplace_back("base", r);
  plans.emplace_back("absent", missing);
  plans.emplace_back("union-absent", AlgebraExpr::Union(r, missing));
  plans.emplace_back("product-absent", AlgebraExpr::Product(r, missing));
  plans.emplace_back("select-const",
                     AlgebraExpr::Select(r, {Cmp(0, "Lt", n / 2)}));
  plans.emplace_back(
      "union",
      AlgebraExpr::Union(AlgebraExpr::Select(r, {Cmp(0, "Lt", 2)}),
                         AlgebraExpr::Select(r, {Cmp(0, "Ge", n - 2)})));
  plans.emplace_back(
      "error-some-tuples",
      AlgebraExpr::Select(r, {Cmp(0, "Ge", n - 3), Cmp(0, "Bogus", 0)}));
  plans.emplace_back("error-column",
                     AlgebraExpr::Union(r, AlgebraExpr::Select(
                                               r, {Cmp(0, "Lt", 2),
                                                   Cmp(7, "Eq", 0)})));
  plans.emplace_back(
      "error-order",
      AlgebraExpr::Union(
          AlgebraExpr::Select(r, {Cmp(0, "Ge", n - 3), Cmp(0, "Bogus", 0)}),
          AlgebraExpr::Select(r, {Cmp(0, "Lt", 3), Cmp(7, "Eq", 0)})));
  if (arity == 1) {
    plans.emplace_back("project-repeat", AlgebraExpr::Project(r, {0, 0}));
    plans.emplace_back("self-join", AlgebraExpr::Join(r, r, {{0, 0}}));
    plans.emplace_back(
        "product-builtin",
        AlgebraExpr::Select(AlgebraExpr::Product(r, r),
                            {Condition::WithColumn(0, "Lt", 1)}));
  } else {
    plans.emplace_back("project", AlgebraExpr::Project(r, {1}));
    plans.emplace_back("select-builtin",
                       AlgebraExpr::Select(r, {Condition::WithColumn(
                                                  0, "Le", 1)}));
    plans.emplace_back(
        "self-join",
        AlgebraExpr::Project(AlgebraExpr::Join(r, r, {{1, 0}}), {0, 2}));
    plans.emplace_back(
        "product",
        AlgebraExpr::Project(
            AlgebraExpr::Select(AlgebraExpr::Product(r, r),
                                {Condition::WithColumn(0, "Lt", 2),
                                 Cmp(1, "Eq", 0)}),
            {0, 2}));
    plans.emplace_back("union-projections",
                       AlgebraExpr::Union(AlgebraExpr::Project(r, {0}),
                                          AlgebraExpr::Project(r, {1})));
  }
  return plans;
}

/// A seeded identity collection over R: 3–5 sources, 6–12 constants,
/// arity 1–2. A planted world D* keeps poss(S) non-empty: each source
/// holds some facts of D* and up to three others, and claims at most its
/// actual soundness and completeness w.r.t. D*, in quarters. At arity 2
/// the others come from a pool of four facts, and the first source holds
/// D* and the pool and claims completeness 1, which keeps poss(S) small
/// enough to enumerate (every world lies inside that source's at most 9
/// facts).
struct IdentityCase {
  SourceCollection collection;
  size_t arity = 1;
  int64_t constants = 0;
};

IdentityCase MakeIdentityCase(uint64_t seed) {
  Rng rng(seed);
  IdentityCase c;
  c.arity = static_cast<size_t>(rng.UniformInt(1, 2));
  c.constants = rng.UniformInt(6, 12);
  const int64_t universe =
      c.arity == 1 ? c.constants : c.constants * c.constants;
  const auto fact = [&](int64_t id) {
    Tuple tuple{Value(id % c.constants)};
    if (c.arity == 2) tuple.push_back(Value(id / c.constants));
    return tuple;
  };
  const std::vector<int64_t> truth =
      rng.SampleWithoutReplacement(universe, rng.UniformInt(2, 5));
  std::vector<int64_t> others;
  for (int64_t id = 0; id < universe; ++id) {
    if (!std::binary_search(truth.begin(), truth.end(), id)) {
      others.push_back(id);
    }
  }
  if (c.arity == 2) {
    // A pool of four other facts, all held by the complete source.
    rng.Shuffle(&others);
    others.resize(4);
  }
  // part/whole rounded down to quarters, then `lower` quarters less.
  const auto quarters = [](size_t part, size_t whole, int64_t lower) {
    return Rational(
        std::max<int64_t>(0, static_cast<int64_t>(4 * part / whole) - lower),
        4);
  };
  const int64_t sources = rng.UniformInt(3, 5);
  std::vector<SourceDescriptor> descriptors;
  for (int64_t i = 0; i < sources; ++i) {
    const bool complete = c.arity == 2 && i == 0;
    const int64_t held =
        complete ? static_cast<int64_t>(truth.size())
                 : rng.UniformInt(1, static_cast<int64_t>(truth.size()));
    Relation extension;
    for (const int64_t pick : rng.SampleWithoutReplacement(
             static_cast<int64_t>(truth.size()), held)) {
      extension.insert(fact(truth[static_cast<size_t>(pick)]));
    }
    for (const int64_t pick : rng.SampleWithoutReplacement(
             static_cast<int64_t>(others.size()),
             complete ? 4 : rng.UniformInt(0, 3))) {
      extension.insert(fact(others[static_cast<size_t>(pick)]));
    }
    // Claims a random 0–3 quarters below the actual measures, so D* has
    // company in poss(S).
    const Rational soundness = quarters(
        static_cast<size_t>(held), extension.size(), rng.UniformInt(0, 3));
    const Rational completeness =
        complete ? Rational::One()
                 : quarters(static_cast<size_t>(held), truth.size(),
                            rng.UniformInt(0, 3));
    auto source = SourceDescriptor::Create(
        "S" + std::to_string(i), ConjunctiveQuery::Identity("R", c.arity),
        std::move(extension), completeness, soundness);
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    descriptors.push_back(std::move(source).ValueOrDie());
  }
  auto collection = SourceCollection::Create(std::move(descriptors));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  c.collection = std::move(collection).ValueOrDie();
  return c;
}

TEST(LineageDifferentialTest, IdentityCollectionsMatchPerWorldOracle) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const IdentityCase c = MakeIdentityCase(seed);
    const std::vector<Value> domain = IntDomain(c.constants);
    for (const auto& [name, plan] : Plans(c.arity, c.constants)) {
      const std::string context =
          "seed " + std::to_string(seed) + " plan " + name;
      const auto exact = OracleExact(c.collection, plan, domain, 0);
      // The planted world keeps poss(S) non-empty.
      if (name == "base") {
        ASSERT_TRUE(exact.ok()) << context;
      }
      const uint64_t mc_seed = seed + 100;
      const auto estimate =
          OracleMonteCarlo(c.collection, plan, domain, 150, mc_seed, 0);
      for (const size_t threads : kThreadCounts) {
        const QuerySystem system = MakeSystem(c.collection, threads);
        const std::string at = context + " threads " + std::to_string(threads);
        ExpectSameAnswer(system.AnswerExact(plan, domain), exact,
                         at + " exact");
        ExpectSameAnswer(system.AnswerMonteCarlo(plan, domain, 150, mc_seed),
                         estimate, at + " monte-carlo");
      }
    }
  }
}

/// A projection view puts answering on the brute-force path.
SourceCollection ProjectionCollection() {
  auto collection = ParseCollection(
      "source P {\n"
      "  view: V(x) <- R(x, y)\n"
      "  completeness: 1\n"
      "  soundness: 1/2\n"
      "  facts: V(0), V(1)\n"
      "}\n"
      "source Q {\n"
      "  view: W(x, y) <- R(x, y)\n"
      "  completeness: 0\n"
      "  soundness: 1\n"
      "  facts: W(1, 2)\n"
      "}\n");
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

TEST(LineageDifferentialTest, ProjectionViewsMatchPerWorldOracle) {
  const SourceCollection collection = ProjectionCollection();
  ASSERT_FALSE(collection.AllIdentityViews());
  const std::vector<Value> domain = IntDomain(3);
  for (const auto& [name, plan] : Plans(2, 3)) {
    const auto expected = OracleExact(collection, plan, domain, 0);
    for (const size_t threads : kThreadCounts) {
      ExpectSameAnswer(
          MakeSystem(collection, threads).AnswerExact(plan, domain), expected,
          "plan " + name + " threads " + std::to_string(threads));
    }
  }
}

/// Tuples the algebra operators have produced in this process so far
/// (lineage operators count theirs once per lineage built); 0 without
/// the observability build.
uint64_t TuplesProduced() {
#if PSC_OBS_ENABLED
  return obs::GlobalMetrics().CounterValue("algebra.tuples_produced");
#else
  return 0;
#endif
}

TEST(LineageDifferentialTest, CompleteSourceOverLargeDomainMatchesOracle) {
  // dom^2 holds 10^4 facts, but the completeness-1 source S0 keeps every
  // world inside its five facts: S1 adds R(0, 1), so 11 worlds of 3 to 5
  // facts. The two-atom query compiles to π(σ(R × R)).
  auto collection = ParseCollection(
      "source S0 {\n"
      "  view: V0(x, y) <- R(x, y)\n"
      "  completeness: 1\n"
      "  soundness: 1/2\n"
      "  facts: V0(0, 1), V0(1, 2), V0(2, 3), V0(3, 0), V0(50, 99)\n"
      "}\n"
      "source S1 {\n"
      "  view: V1(x, y) <- R(x, y)\n"
      "  completeness: 0\n"
      "  soundness: 1/2\n"
      "  facts: V1(0, 1), V1(7, 8)\n"
      "}\n");
  ASSERT_TRUE(collection.ok()) << collection.status().ToString();
  ASSERT_TRUE(collection->AllIdentityViews());
  const std::vector<Value> domain = IntDomain(100);
  PSC_ASSERT_OK_AND_ASSIGN(const ConjunctiveQuery query,
                           ParseQuery("Ans(x, z) <- R(x, y), R(y, z)"));
  PSC_ASSERT_OK_AND_ASSIGN(const AlgebraExprPtr plan, CompileQuery(query));
  const auto exact = OracleExact(*collection, plan, domain, 0);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->worlds_used, 11u);
  EXPECT_FALSE(exact->possible.empty());
  const auto estimate =
      OracleMonteCarlo(*collection, plan, domain, 150, 3, 0);
  ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
  for (const size_t threads : kThreadCounts) {
    const QuerySystem system = MakeSystem(*collection, threads);
    const std::string at = "threads " + std::to_string(threads);
    // Lineage covers the worlds' facts, not dom^2: a few dozen tuples per
    // call, where π(σ(R × R)) over all of dom^2 would take 10^6.
    const uint64_t before = TuplesProduced();
    ExpectSameAnswer(system.AnswerExact(plan, domain), exact, at + " exact");
    ExpectSameAnswer(system.AnswerMonteCarlo(plan, domain, 150, 3), estimate,
                     at + " monte-carlo");
    EXPECT_LT(TuplesProduced() - before, 1000u) << at;
  }
}

TEST(LineageDifferentialTest, SparseWorldsOverLargeUniverseMatchOracle) {
  // No complete source: every fact of dom^2 (1600) can be in a world, but
  // completeness 1/2 lets a world add at most as many facts outside S as
  // it holds of S, so a sampled world has at most 8 facts.
  auto collection = ParseCollection(
      "source S {\n"
      "  view: V(x, y) <- R(x, y)\n"
      "  completeness: 1/2\n"
      "  soundness: 1/2\n"
      "  facts: V(0, 1), V(1, 2), V(2, 3), V(3, 4)\n"
      "}\n");
  ASSERT_TRUE(collection.ok()) << collection.status().ToString();
  const std::vector<Value> domain = IntDomain(40);
  const AlgebraExprPtr r = AlgebraExpr::Base("R", 2);
  PSC_ASSERT_OK_AND_ASSIGN(const ConjunctiveQuery query,
                           ParseQuery("Ans(x, z) <- R(x, y), R(y, z)"));
  PSC_ASSERT_OK_AND_ASSIGN(const AlgebraExprPtr join, CompileQuery(query));
  const std::pair<std::string, AlgebraExprPtr> plans[] = {
      {"base", r},
      {"join", join},
      {"product", AlgebraExpr::Project(AlgebraExpr::Product(r, r), {0, 3})},
  };
  for (const auto& [name, plan] : plans) {
    const auto estimate =
        OracleMonteCarlo(*collection, plan, domain, 150, 9, 0);
    ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
    for (const size_t threads : kThreadCounts) {
      const std::string at = name + " threads " + std::to_string(threads);
      // Groups of worlds about their own size: under 10^3 join and
      // 3 * 10^4 product tuples per call, where lineage over the whole
      // universe would take 6.6 * 10^4 and 2.6 * 10^6.
      const uint64_t before = TuplesProduced();
      ExpectSameAnswer(MakeSystem(*collection, threads)
                           .AnswerMonteCarlo(plan, domain, 150, 9),
                       estimate, at);
      EXPECT_LT(TuplesProduced() - before, 30000u) << at;
    }
  }
}

TEST(LineageDifferentialTest, EmptyPossibleWorldsStayInconsistent) {
  // S1 and S2 are both exact over disjoint facts: poss(S) = ∅. Plans that
  // would fail on any tuple still report the inconsistency.
  const SourceCollection collection = testing::MakeUnaryCollection(
      {testing::MakeUnarySource("S1", {0}, "1", "1"),
       testing::MakeUnarySource("S2", {1}, "1", "1")});
  const std::vector<Value> domain = IntDomain(3);
  for (const auto& [name, plan] : Plans(1, 3)) {
    for (const size_t threads : kThreadCounts) {
      const QuerySystem system = MakeSystem(collection, threads);
      EXPECT_EQ(system.AnswerExact(plan, domain).status().code(),
                StatusCode::kInconsistent)
          << name;
      EXPECT_EQ(system.AnswerMonteCarlo(plan, domain, 10, 1).status().code(),
                StatusCode::kInconsistent)
          << name;
    }
  }
}

TEST(LineageDifferentialTest, NodeBudgetTruncationMatchesOracle) {
  const IdentityCase c = MakeIdentityCase(3);
  const std::vector<Value> domain = IntDomain(c.constants);
  const AlgebraExprPtr plan = Plans(c.arity, c.constants).front().second;
  PSC_ASSERT_OK_AND_ASSIGN(const QueryAnswer full,
                           OracleExact(c.collection, plan, domain, 0));
  ASSERT_GT(full.worlds_used, 4u);
  // The sampler build's nodes, then 100 samples: the second block trips.
  PSC_ASSERT_OK_AND_ASSIGN(
      const IdentityInstance instance,
      IdentityInstance::Create(c.collection, domain));
  const limits::Budget build = limits::Budget::WithNodeBudget(kMaxShapes);
  ASSERT_TRUE(WorldSampler::Create(&instance, kMaxShapes, build).ok());
  const uint64_t mc_budget = build.nodes_charged() + 100;
  const auto expected_mc =
      OracleMonteCarlo(c.collection, plan, domain, 1000, 5, mc_budget);
  ASSERT_TRUE(expected_mc.ok()) << expected_mc.status().ToString();
  EXPECT_TRUE(expected_mc->truncated);
  EXPECT_EQ(expected_mc->worlds_used, 100u);
  // Exact enumeration pays the same shape build, then one node per world:
  // it runs out part-way through the worlds.
  const uint64_t exact_budget = build.nodes_charged() + full.worlds_used / 2;
  const auto expected_exact =
      OracleExact(c.collection, plan, domain, exact_budget);
  EXPECT_EQ(expected_exact.status().code(), StatusCode::kResourceExhausted);

  for (const size_t threads : kThreadCounts) {
    const std::string at = "threads " + std::to_string(threads);
    ExpectSameAnswer(MakeSystem(c.collection, threads, exact_budget)
                         .AnswerExact(plan, domain),
                     expected_exact, at + " exact");
    const auto mc = MakeSystem(c.collection, threads, mc_budget)
                        .AnswerMonteCarlo(plan, domain, 1000, 5);
    if (threads == 1) {
      ExpectSameAnswer(mc, expected_mc, at + " monte-carlo");
      continue;
    }
    // Concurrent blocks share the node counter, so which samples are
    // charged first depends on scheduling: only the bound is fixed.
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    EXPECT_TRUE(mc->truncated) << at;
    EXPECT_EQ(mc->truncation_reason, expected_mc->truncation_reason) << at;
    EXPECT_LE(mc->worlds_used, expected_mc->worlds_used) << at;
  }
}

TEST(LineageDifferentialTest, PlanErrorsBeforeABudgetTripStillWin) {
  // Under a node budget that trips part-way through the worlds, a plan
  // that fails in an earlier world reports that failure, not the trip,
  // even when the failing world's group is answered only after the trip.
  bool plan_error_seen = false;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const IdentityCase c = MakeIdentityCase(seed);
    const std::vector<Value> domain = IntDomain(c.constants);
    PSC_ASSERT_OK_AND_ASSIGN(
        const IdentityInstance instance,
        IdentityInstance::Create(c.collection, domain));
    const limits::Budget build = limits::Budget::WithNodeBudget(kMaxShapes);
    ASSERT_TRUE(WorldSampler::Create(&instance, kMaxShapes, build).ok());
    const AlgebraExprPtr base = Plans(c.arity, c.constants).front().second;
    PSC_ASSERT_OK_AND_ASSIGN(const QueryAnswer full,
                             OracleExact(c.collection, base, domain, 0));
    const uint64_t budget = build.nodes_charged() + full.worlds_used / 2;
    for (const auto& [name, plan] : Plans(c.arity, c.constants)) {
      const auto expected = OracleExact(c.collection, plan, domain, budget);
      plan_error_seen |= !expected.ok() && expected.status().code() !=
                                               StatusCode::kResourceExhausted;
      for (const size_t threads : kThreadCounts) {
        ExpectSameAnswer(
            MakeSystem(c.collection, threads, budget).AnswerExact(plan, domain),
            expected,
            "seed " + std::to_string(seed) + " plan " + name + " threads " +
                std::to_string(threads));
      }
    }
  }
  EXPECT_TRUE(plan_error_seen);
}

}  // namespace
}  // namespace psc
