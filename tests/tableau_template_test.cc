#include "psc/tableau/template_builder.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::U;

TEST(TemplateBuilderTest, CombinationValidation) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1/2", "1/2")});
  TemplateBuilder builder(&collection);
  // Wrong combination length.
  EXPECT_FALSE(builder.Build({}).ok());
  // Subset not inside the extension.
  EXPECT_FALSE(builder.Build({Relation{U(7)}}).ok());
  // Below the soundness threshold ⌈(1/2)·2⌉ = 1.
  EXPECT_FALSE(builder.Build({Relation{}}).ok());
  // Valid subset builds.
  auto built = builder.Build({Relation{U(0)}});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_TRUE(built->has_value());
}

TEST(TemplateBuilderTest, IdentityTemplateShape) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1/2", "1/2")});
  TemplateBuilder builder(&collection);
  auto built = builder.Build({Relation{U(0), U(1)}});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->has_value());
  const DatabaseTemplate& t = **built;
  // Tableau forces u = {R(0), R(1)}.
  ASSERT_EQ(t.tableaux().size(), 1u);
  EXPECT_EQ(t.tableaux()[0].size(), 2u);
  // One cardinality constraint (c = 1/2 > 0): m = ⌊2/(1/2)⌋ = 4,
  // pattern has 5 fresh copies, Θ has 5·4 ordered pairs.
  ASSERT_EQ(t.constraints().size(), 1u);
  EXPECT_EQ(t.constraints()[0].pattern.size(), 5u);
  EXPECT_EQ(t.constraints()[0].options.size(), 20u);
}

TEST(TemplateBuilderTest, ZeroCompletenessSkipsConstraint) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "1/2")});
  TemplateBuilder builder(&collection);
  auto built = builder.Build({Relation{U(0)}});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->has_value());
  EXPECT_TRUE((*built)->constraints().empty());
}

TEST(TemplateBuilderTest, CompletenessCapPastTheCopyLimitIsResourceExhausted) {
  // One designated fact and c = 1/255: m = 255, so 256 body copies, the
  // limit, and 256·255 pairing substitutions.
  auto at_limit =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/255", "1")});
  auto built = TemplateBuilder(&at_limit).Build({Relation{U(0)}});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(built->has_value());
  EXPECT_EQ((*built)->constraints()[0].pattern.size(),
            TemplateBuilder::kMaxCompletenessCopies);
  EXPECT_EQ((*built)->constraints()[0].options.size(), 256u * 255u);

  // c = 1/256: m = 256 needs 257 copies, one past the limit.
  auto past_limit =
      MakeUnaryCollection({MakeUnarySource("S", {0}, "1/256", "1")});
  built = TemplateBuilder(&past_limit).Build({Relation{U(0)}});
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted);
}

TEST(TemplateBuilderTest, RepMatchesDirectSemanticsOnIdentity) {
  // For U = {0}: rep(𝒯^U) = worlds containing R(0) with |D| ≤ 2
  // (m = ⌊1/(1/2)⌋ = 2).
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "1/2", "1/2")});
  TemplateBuilder builder(&collection);
  auto built = builder.Build({Relation{U(0)}});
  ASSERT_TRUE(built.ok());
  const DatabaseTemplate& t = **built;

  Database world;
  world.AddFact("R", U(0));
  EXPECT_TRUE(t.RepContains(world));
  world.AddFact("R", U(5));
  EXPECT_TRUE(t.RepContains(world));   // |D| = 2 ≤ m
  world.AddFact("R", U(6));
  EXPECT_FALSE(t.RepContains(world));  // |D| = 3 > m
  Database missing;
  missing.AddFact("R", U(1));
  EXPECT_FALSE(t.RepContains(missing));  // u ⊄ D
}

TEST(TemplateBuilderTest, HeadConstantMismatchYieldsEmptyRep) {
  // View head fixes the station id; a claimed fact with another id can
  // never be produced, so the combination is unrealizable.
  auto view = testing::Q("V(y) <- T(438432, y)");
  Relation extension = {Tuple{Value(int64_t{1990})}};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  TemplateBuilder builder(&*collection);
  auto ok_build = builder.Build({extension});
  ASSERT_TRUE(ok_build.ok());
  EXPECT_TRUE(ok_build->has_value());  // 1990 unifies fine

  // Same view, but the extension claims an impossible head.
  auto bad_view = testing::Q("V(y, y) <- T(y, y)");
  Relation bad_extension = {Tuple{Value(int64_t{1}), Value(int64_t{2})}};
  auto bad_source = SourceDescriptor::Create("B", bad_view, bad_extension,
                                             Rational::Zero(),
                                             Rational::One());
  ASSERT_TRUE(bad_source.ok());
  auto bad_collection = SourceCollection::Create({*bad_source});
  ASSERT_TRUE(bad_collection.ok());
  TemplateBuilder bad_builder(&*bad_collection);
  auto bad_build = bad_builder.Build({bad_extension});
  ASSERT_TRUE(bad_build.ok()) << bad_build.status().ToString();
  EXPECT_FALSE(bad_build->has_value());
}

TEST(TemplateBuilderTest, GroundFalseBuiltinYieldsEmptyRep) {
  auto view = testing::Q("V(y) <- T(y), After(y, 1900)");
  Relation extension = {Tuple{Value(int64_t{1800})}};  // violates After
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  TemplateBuilder builder(&*collection);
  auto built = builder.Build({extension});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_FALSE(built->has_value());
}

TEST(TemplateBuilderTest, NonGroundBuiltinUnimplemented) {
  // The built-in constrains an existential variable: not expressible.
  auto view = testing::Q("V(x) <- T(x, y), After(y, 1900)");
  Relation extension = {Tuple{Value(int64_t{1})}};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  TemplateBuilder builder(&*collection);
  EXPECT_EQ(builder.Build({extension}).status().code(),
            StatusCode::kUnimplemented);
}

TEST(TemplateBuilderTest, JoinViewIntroducesFreshExistentials) {
  auto view = testing::Q("V(x) <- R2(x, y), S1(y)");
  Relation extension = {U(1), U(2)};
  auto source = SourceDescriptor::Create("S", view, extension,
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  TemplateBuilder builder(&*collection);
  auto built = builder.Build({extension});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->has_value());
  const Tableau& tableau = (*built)->tableaux()[0];
  // Two facts × two body atoms = 4 atoms; the y of fact 1 differs from
  // the y of fact 2.
  EXPECT_EQ(tableau.size(), 4u);
  EXPECT_EQ(TableauVariables(tableau).size(), 2u);
  // Freezing yields a database whose views produce both claimed facts.
  const Database frozen = (*built)->FreezeTableau(0);
  auto produced = view.Evaluate(frozen);
  ASSERT_TRUE(produced.ok());
  EXPECT_EQ(produced->count(U(1)), 1u);
  EXPECT_EQ(produced->count(U(2)), 1u);
  EXPECT_EQ(produced->size(), 2u);
}

TEST(TemplateBuilderTest, EnumerationOfAllowableCombinations) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {2}, "1", "1")});
  TemplateBuilder builder(&collection);
  // S1: subsets of size ≥ 1 → 3; S2: subsets of size ≥ 1 → 1. Total 3.
  EXPECT_EQ(builder.CountAllowableCombinations().ToUint64(), 3u);
  uint64_t seen = 0;
  auto completed =
      builder.ForEachAllowableCombination([&](const Combination& combo) {
        EXPECT_EQ(combo.size(), 2u);
        EXPECT_GE(combo[0].size(), 1u);
        EXPECT_EQ(combo[1].size(), 1u);
        ++seen;
        return true;
      });
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(seen, 3u);
}

TEST(TemplateBuilderTest, CombinationCountWithZeroSoundness) {
  auto collection =
      MakeUnaryCollection({MakeUnarySource("S", {0, 1, 2}, "1", "0")});
  TemplateBuilder builder(&collection);
  EXPECT_EQ(builder.CountAllowableCombinations().ToUint64(), 8u);  // 2^3
}

}  // namespace
}  // namespace psc
