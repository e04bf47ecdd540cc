#include "psc/consistency/general_consistency.h"

#include "gtest/gtest.h"
#include "psc/source/measures.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(GeneralConsistencyTest, EmptyCollectionTriviallyConsistent) {
  auto empty = SourceCollection::Create({});
  ASSERT_TRUE(empty.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*empty);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_EQ(report->method, "trivial");
}

TEST(GeneralConsistencyTest, IdentityCollectionsUseTheCounter) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")});
  GeneralConsistencyChecker checker;
  auto report = checker.Check(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_EQ(report->method, "identity-counter");
  ASSERT_TRUE(report->witness.has_value());
  EXPECT_TRUE(*collection.IsPossibleWorld(*report->witness));
}

TEST(GeneralConsistencyTest, IdentityInconsistencyDetected) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")});
  GeneralConsistencyChecker checker;
  auto report = checker.Check(collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kInconsistent);
}

TEST(GeneralConsistencyTest, ProjectionViewConsistentViaFreeze) {
  // V(x) ← R2(x, y): a sound+complete claim on {0} is satisfiable with
  // one invented join partner.
  auto view = testing::Q("V(x) <- R2(x, y)");
  Relation extension = {testing::U(0)};
  auto source = SourceDescriptor::Create("P", view, extension,
                                         Rational::One(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_EQ(report->method, "canonical-freeze");
  ASSERT_TRUE(report->witness.has_value());
  EXPECT_TRUE(*collection->IsPossibleWorld(*report->witness));
}

TEST(GeneralConsistencyTest, JoinViewWithBuiltinConsistent) {
  // Head grounding makes the built-in decidable at build time.
  auto view = testing::Q("V(y) <- T(y, z), After(y, 1900)");
  Relation extension = {testing::U(1990)};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_TRUE(report->witness.has_value());
}

TEST(GeneralConsistencyTest, BuiltinViolationDetectedAsInconsistent) {
  // The only claimed fact violates After(y, 1900) and the source demands
  // full soundness — no possible world exists.
  auto view = testing::Q("V(y) <- T(y, z), After(y, 1900)");
  Relation extension = {testing::U(1800)};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The exhaustive pass may or may not be able to close the domain; the
  // checker must never claim kConsistent here.
  EXPECT_NE(report->verdict, ConsistencyVerdict::kConsistent)
      << report->method;
}

TEST(GeneralConsistencyTest, TwoViewsShareARelation) {
  // Source A: projection of R2 must cover {0}; source B: identity on S1
  // exact on {5}. Independent relations — consistent.
  auto view_a = testing::Q("V(x) <- R2(x, y)");
  auto source_a = SourceDescriptor::Create("A", view_a, {testing::U(0)},
                                           Rational::One(), Rational::One());
  ASSERT_TRUE(source_a.ok());
  auto view_b = testing::Q("W(x) <- S1(x)");
  auto source_b = SourceDescriptor::Create("B", view_b, {testing::U(5)},
                                           Rational::One(), Rational::One());
  ASSERT_TRUE(source_b.ok());
  auto collection = SourceCollection::Create({*source_a, *source_b});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_TRUE(*collection->IsPossibleWorld(*report->witness));
}

TEST(GeneralConsistencyTest, ExhaustivePassProvesInconsistency) {
  // The claimed fact (1,2) can never match the head V(y,y); the freeze
  // pass produces no candidates and the canonical domain is already
  // complete (no fresh constants needed beyond the mentioned ones), so
  // the exhaustive fallback may return a definitive INCONSISTENT.
  auto view = testing::Q("V(y, y) <- T(y, y)");
  Relation extension = {Tuple{Value(int64_t{1}), Value(int64_t{2})}};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kInconsistent);
  EXPECT_EQ(report->method, "exhaustive");
}

TEST(GeneralConsistencyTest, ReportCountsWorkPerformed) {
  auto view = testing::Q("V(x) <- R2(x, y)");
  Relation extension = {testing::U(0), testing::U(1)};
  auto source = SourceDescriptor::Create("P", view, extension,
                                         Rational::Zero(), Rational(1, 2));
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  GeneralConsistencyChecker checker;
  auto report = checker.Check(*collection);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
  EXPECT_GE(report->combinations_tried, 1u);
  EXPECT_GE(report->candidates_checked, 1u);
}

TEST(GeneralConsistencyTest, VerdictToString) {
  EXPECT_STREQ(ConsistencyVerdictToString(ConsistencyVerdict::kConsistent),
               "CONSISTENT");
  EXPECT_STREQ(ConsistencyVerdictToString(ConsistencyVerdict::kInconsistent),
               "INCONSISTENT");
  EXPECT_STREQ(ConsistencyVerdictToString(ConsistencyVerdict::kUnknown),
               "UNKNOWN");
}

}  // namespace
}  // namespace psc
