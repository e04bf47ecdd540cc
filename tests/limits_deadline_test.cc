// Integration tests for deadlines and node budgets threaded through
// QuerySystem: consistency degrades to kUnknown, Monte-Carlo returns a
// truncated partial answer (or fails when the limit trips before the first
// sample), exact enumeration fails cleanly, and disabled limits leave every
// result identical to the default configuration.

#include <chrono>
#include <string>

#include "gtest/gtest.h"
#include "psc/algebra/expression.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_sampler.h"
#include "psc/parser/parser.h"
#include "psc/util/status.h"
#include "psc/workload/cache_workload.h"
#include "test_util.h"

namespace psc {
namespace {

using psc::testing::IntDomain;
using psc::testing::MakeUnaryCollection;
using psc::testing::MakeUnarySource;
using psc::testing::U;

/// An inconsistent non-identity collection whose canonical-freeze search
/// must grind through millions of allowable combinations before giving up:
/// `Blocker` forces R ∩ M = ∅ (completeness 1 over an empty extension)
/// while the two wide sources each demand ≥ 6 of their 12 facts in R ∩ M
/// (soundness 1/2), giving ~2510² candidate combinations, none of which
/// can be a witness. The join bodies keep every view non-identity so the
/// checker cannot shortcut through the exact signature counter.
SourceCollection HardConsistencyCollection() {
  std::string text =
      "source Blocker {\n"
      "  view: V0(x) <- R(x), M(x)\n"
      "  completeness: 1\n"
      "  soundness: 0\n"
      "}\n";
  for (int s = 0; s < 2; ++s) {
    text += "source Wide" + std::to_string(s) +
            " {\n"
            "  view: V" +
            std::to_string(s + 1) +
            "(x) <- R(x), M(x)\n"
            "  completeness: 0\n"
            "  soundness: 1/2\n"
            "  facts: ";
    for (int i = 0; i < 12; ++i) {
      if (i > 0) text += ", ";
      text += "(" + std::to_string(s * 12 + i + 1) + ")";
    }
    text += "\n}\n";
  }
  auto collection = ParseCollection(text);
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return std::move(collection).ValueOrDie();
}

/// Example 5.1: two unary identity sources, 7 possible worlds over {0..3}.
SourceCollection Example51Collection() {
  return MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                              MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
}

class DeadlineConsistencyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeadlineConsistencyTest, HugeInstanceDegradesToUnknownPromptly) {
  QuerySystem::Options options;
  options.threads = GetParam();
  options.deadline_ms = 50;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(HardConsistencyCollection(), options));

  const auto start = std::chrono::steady_clock::now();
  PSC_ASSERT_OK_AND_ASSIGN(const ConsistencyReport report,
                           system.CheckConsistency());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_EQ(report.verdict, ConsistencyVerdict::kUnknown);
  EXPECT_NE(report.unknown_reason.find("deadline"), std::string::npos)
      << report.unknown_reason;
  // Promptness: cooperative polling plus per-combination charges should
  // stop the search within a small multiple of the 50 ms deadline. The
  // bound is deliberately loose for sanitizer / loaded-CI builds; the
  // unbounded search takes orders of magnitude longer.
  EXPECT_LT(elapsed.count(), 10000) << "took " << elapsed.count() << " ms";
}

INSTANTIATE_TEST_SUITE_P(Threads, DeadlineConsistencyTest,
                         ::testing::Values(size_t{1}, size_t{4}));

/// A §6 cache fleet whose Monte-Carlo sampler build (the feasible-shape
/// enumeration) is far slower than the deadline: 4 caches over 100
/// objects, 15 signature groups, about 2·10^5 feasible shapes; the
/// unbounded build takes about 6.5 s in a Release build on a 4-vCPU x86
/// VM.
class DeadlineMonteCarloTest : public ::testing::TestWithParam<size_t> {};

TEST_P(DeadlineMonteCarloTest, SamplerBuildHonoursDeadline) {
  CacheConfig config;
  config.num_objects = 100;
  config.num_caches = 4;
  config.seed = 7;
  PSC_ASSERT_OK_AND_ASSIGN(const CacheWorkload workload,
                           MakeCacheWorkload(config));
  QuerySystem::Options options;
  options.threads = GetParam();
  options.deadline_ms = 50;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(workload.collection, options));

  const auto start = std::chrono::steady_clock::now();
  const auto answer = system.AnswerMonteCarlo(
      AlgebraExpr::Base("Object", 1),
      workload.collection.MentionedConstants(), /*samples=*/192,
      /*seed=*/1);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded)
      << answer.status().ToString();
  // Well under the unbounded build, with room for sanitizer builds.
  EXPECT_LT(elapsed.count(), 1000) << "took " << elapsed.count() << " ms";
}

INSTANTIATE_TEST_SUITE_P(Threads, DeadlineMonteCarloTest,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST(DeadlineDisabledTest, ZeroLimitsMatchDefaultOptions) {
  PSC_ASSERT_OK_AND_ASSIGN(const QuerySystem baseline,
                           QuerySystem::Create(Example51Collection()));
  QuerySystem::Options options;
  options.threads = 1;
  options.deadline_ms = 0;
  options.node_budget = 0;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem limited,
      QuerySystem::Create(Example51Collection(), options));

  PSC_ASSERT_OK_AND_ASSIGN(const ConsistencyReport base_report,
                           baseline.CheckConsistency());
  PSC_ASSERT_OK_AND_ASSIGN(const ConsistencyReport limited_report,
                           limited.CheckConsistency());
  EXPECT_EQ(base_report.verdict, limited_report.verdict);
  EXPECT_EQ(base_report.method, limited_report.method);

  const AlgebraExprPtr plan = AlgebraExpr::Base("R", 1);
  PSC_ASSERT_OK_AND_ASSIGN(const QueryAnswer base_answer,
                           baseline.AnswerExact(plan, IntDomain(4)));
  PSC_ASSERT_OK_AND_ASSIGN(const QueryAnswer limited_answer,
                           limited.AnswerExact(plan, IntDomain(4)));
  EXPECT_EQ(base_answer.worlds_used, limited_answer.worlds_used);
  EXPECT_EQ(base_answer.certain, limited_answer.certain);
  EXPECT_EQ(base_answer.possible, limited_answer.possible);
  EXPECT_FALSE(limited_answer.truncated);
  EXPECT_TRUE(limited_answer.truncation_reason.empty());
}

TEST(NodeBudgetTest, MonteCarloTruncatesToPartialAnswerSequential) {
  QuerySystem::Options options;
  options.threads = 1;
  options.node_budget = 100;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(Example51Collection(), options));
  const AlgebraExprPtr plan = AlgebraExpr::Base("R", 1);
  PSC_ASSERT_OK_AND_ASSIGN(
      const QueryAnswer answer,
      system.AnswerMonteCarlo(plan, IntDomain(4), /*samples=*/100000,
                              /*seed=*/7));
  EXPECT_TRUE(answer.truncated);
  EXPECT_NE(answer.truncation_reason.find("node budget"), std::string::npos)
      << answer.truncation_reason;
  EXPECT_EQ(answer.method, "monte-carlo");
  // The budget first pays for the sampler build (one node per count-vector
  // tree node); the sequential loop then draws exactly one sample per
  // successful charge.
  PSC_ASSERT_OK_AND_ASSIGN(
      const IdentityInstance instance,
      IdentityInstance::Create(Example51Collection(), IntDomain(4)));
  const limits::Budget build_budget = limits::Budget::WithNodeBudget(100);
  const auto sampler =
      WorldSampler::Create(&instance, uint64_t{1} << 22, build_budget);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  ASSERT_GT(build_budget.nodes_charged(), 0u);
  ASSERT_LT(build_budget.nodes_charged(), 100u);
  EXPECT_EQ(answer.worlds_used, 100u - build_budget.nodes_charged());
  // The partial estimate is still well formed: frequencies in [0, 1].
  for (const auto& [tuple, confidence] : answer.confidences.entries()) {
    EXPECT_GE(confidence, 0.0);
    EXPECT_LE(confidence, 1.0);
  }
}

TEST(NodeBudgetTest, MonteCarloTruncatesToPartialAnswerParallel) {
  QuerySystem::Options options;
  options.threads = 4;
  options.node_budget = 100;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(Example51Collection(), options));
  const AlgebraExprPtr plan = AlgebraExpr::Base("R", 1);
  PSC_ASSERT_OK_AND_ASSIGN(
      const QueryAnswer answer,
      system.AnswerMonteCarlo(plan, IntDomain(4), /*samples=*/100000,
                              /*seed=*/7));
  EXPECT_TRUE(answer.truncated);
  EXPECT_FALSE(answer.truncation_reason.empty());
  // Workers stop at the shared counter: at most one sample per charge.
  EXPECT_GT(answer.worlds_used, 0u);
  EXPECT_LE(answer.worlds_used, 100u);
}

TEST(NodeBudgetTest, ExactEnumerationFailsCleanly) {
  QuerySystem::Options options;
  options.threads = 1;
  options.node_budget = 2;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(Example51Collection(), options));
  const AlgebraExprPtr plan = AlgebraExpr::Base("R", 1);
  const auto result = system.AnswerExact(plan, IntDomain(4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
}

TEST(NodeBudgetTest, ConsistencyDegradesToUnknown) {
  QuerySystem::Options options;
  options.threads = 1;
  options.node_budget = 4;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem system,
      QuerySystem::Create(HardConsistencyCollection(), options));
  PSC_ASSERT_OK_AND_ASSIGN(const ConsistencyReport report,
                           system.CheckConsistency());
  EXPECT_EQ(report.verdict, ConsistencyVerdict::kUnknown);
  EXPECT_NE(report.unknown_reason.find("node budget"), std::string::npos)
      << report.unknown_reason;
}

}  // namespace
}  // namespace psc
