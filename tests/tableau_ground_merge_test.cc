// FreezeTableauWithGroundMerge against the rescanning reference fixpoint
// in tests/oracle/: the frozen databases must be equal, not merely both
// possible, because the consistency search returns them as witnesses.

#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "oracle/ground_merge_oracle.h"
#include "psc/tableau/tableau.h"
#include "psc/tableau/template_builder.h"
#include "psc/util/random.h"
#include "test_util.h"

namespace psc {
namespace {

Term V(const std::string& name) { return Term::Var(name); }
Term C(int64_t v) { return Term::ConstInt(v); }

/// Both fixpoints on `tableau`; returns the production result.
Database ExpectMatchesOracle(const Tableau& tableau) {
  const Database merged = FreezeTableauWithGroundMerge(tableau);
  EXPECT_EQ(merged, oracle::FreezeTableauWithGroundMerge(tableau))
      << "tableau " << TableauToString(tableau);
  return merged;
}

TEST(GroundMergeTest, RandomTableauxMatchTheOracle) {
  int merged_tableaux = 0;
  constexpr int kTableaux = 20000;
  for (uint64_t seed = 1; seed <= kTableaux; ++seed) {
    Rng rng(seed);
    const int64_t predicates = rng.UniformInt(1, 3);
    std::vector<int64_t> arities;
    for (int64_t p = 0; p < predicates; ++p) {
      arities.push_back(rng.UniformInt(1, 3));
    }
    // A few variables and constants, so atoms share both.
    const int64_t variables = rng.UniformInt(1, 5);
    const int64_t constants = rng.UniformInt(1, 3);
    Tableau tableau;
    const int64_t atoms = rng.UniformInt(1, 10);
    for (int64_t a = 0; a < atoms; ++a) {
      const int64_t p = rng.UniformInt(0, predicates - 1);
      std::vector<Term> terms;
      for (int64_t pos = 0; pos < arities[static_cast<size_t>(p)]; ++pos) {
        terms.push_back(rng.Bernoulli(0.5)
                            ? V("x" + std::to_string(
                                          rng.UniformInt(0, variables - 1)))
                            : C(rng.UniformInt(0, constants - 1)));
      }
      tableau.insert(Atom("P" + std::to_string(p), std::move(terms)));
    }
    const Database merged = ExpectMatchesOracle(tableau);
    if (merged != FreezeTableau(tableau)) ++merged_tableaux;
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  // The generator must reach the merge, not just the plain freeze.
  EXPECT_GT(merged_tableaux, kTableaux / 4);
}

TEST(GroundMergeTest, NewGroundAtomBecomesAnEarlierAtomsTarget) {
  // R(a, 5) precedes every S atom but matches nothing until merging S(u)
  // onto S(7) grounds R(u, 5) into R(7, 5).
  const Tableau tableau = {Atom("R", {V("a"), C(5)}),
                           Atom("R", {V("u"), C(5)}), Atom("S", {V("u")}),
                           Atom("S", {C(7)})};
  EXPECT_EQ(ExpectMatchesOracle(tableau),
            FreezeTableau({Atom("R", {C(7), C(5)}), Atom("S", {C(7)})}));
}

TEST(GroundMergeTest, PartialGroundingLeavesAnAtomOpen) {
  // Merging P(x) grounds x in T(x, y); y stays a variable and is frozen.
  const Tableau tableau = {Atom("P", {V("x")}), Atom("P", {C(3)}),
                           Atom("T", {V("x"), V("y")})};
  const Database merged = ExpectMatchesOracle(tableau);
  EXPECT_EQ(merged, FreezeTableau({Atom("P", {C(3)}),
                                   Atom("T", {C(3), V("y")})}));
}

TEST(GroundMergeTest, AtomsCoincideAfterSubstitution) {
  // P(x) and P(y) both merge onto P(4); Q(x, z) and Q(y, z) become the
  // same atom Q(4, z).
  const Tableau tableau = {Atom("P", {V("x")}), Atom("P", {V("y")}),
                           Atom("P", {C(4)}), Atom("Q", {V("x"), V("z")}),
                           Atom("Q", {V("y"), V("z")})};
  const Database merged = ExpectMatchesOracle(tableau);
  EXPECT_EQ(merged, FreezeTableau({Atom("P", {C(4)}),
                                   Atom("Q", {C(4), V("z")})}));
  EXPECT_EQ(merged.size(), 2u);
}

TEST(GroundMergeTest, RewriteTakesAMatchAway) {
  // A(x) merges first, and B(x, y) becomes B(3, y), which no longer
  // unifies with B(1, 2).
  const Tableau tableau = {Atom("A", {V("x")}), Atom("A", {C(3)}),
                           Atom("B", {V("x"), V("y")}),
                           Atom("B", {C(1), C(2)})};
  EXPECT_EQ(ExpectMatchesOracle(tableau),
            FreezeTableau({Atom("A", {C(3)}), Atom("B", {C(1), C(2)}),
                           Atom("B", {C(3), V("y")})}));
}

TEST(GroundMergeTest, RepeatedVariableMustMeetOneConstant) {
  // R(x, x) cannot merge onto R(1, 2) but can onto R(3, 3).
  const Tableau tableau = {Atom("R", {V("x"), V("x")}),
                           Atom("R", {C(1), C(2)}), Atom("R", {C(3), C(3)})};
  EXPECT_EQ(ExpectMatchesOracle(tableau),
            FreezeTableau({Atom("R", {C(1), C(2)}), Atom("R", {C(3), C(3)})}));
}

/// The first allowable combination (every uᵢ = vᵢ) and its tableau.
Tableau CombinationZeroTableau(const SourceCollection& collection) {
  TemplateBuilder builder(&collection);
  Tableau tableau;
  auto enumerated = builder.ForEachAllowableCombination(
      [&](const Combination& combination) {
        auto built = builder.BuildTableau(combination);
        EXPECT_TRUE(built.ok()) << built.status().ToString();
        if (built.ok() && built->has_value()) tableau = std::move(**built);
        return false;
      });
  EXPECT_TRUE(enumerated.ok()) << enumerated.status().ToString();
  return tableau;
}

TEST(GroundMergeTest, GhcnCombinationZeroTableauxMatchTheOracle) {
  for (const auto& [stations, sources] :
       {std::pair{6, 2}, std::pair{8, 3}, std::pair{10, 3},
        std::pair{12, 4}}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      const SourceCollection collection =
          testing::MakeGhcnFederation(stations, sources, seed);
      const Tableau tableau = CombinationZeroTableau(collection);
      ASSERT_FALSE(tableau.empty());
      // The country sources' Station atoms merge onto the catalog.
      EXPECT_NE(ExpectMatchesOracle(tableau), FreezeTableau(tableau))
          << stations << " stations, seed " << seed;
    }
  }
}

TEST(GroundMergeTest, ClimatologyTableauxMatchTheOracle) {
  std::ifstream file(PSC_DATA_DIR "/climatology.psc");
  ASSERT_TRUE(file.good()) << "cannot open " PSC_DATA_DIR "/climatology.psc";
  std::stringstream text;
  text << file.rdbuf();
  PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection collection,
                           ParseCollection(text.str()));
  TemplateBuilder builder(&collection);
  int tableaux = 0;
  auto enumerated = builder.ForEachAllowableCombination(
      [&](const Combination& combination) {
        auto built = builder.BuildTableau(combination);
        EXPECT_TRUE(built.ok()) << built.status().ToString();
        if (built.ok() && built->has_value()) {
          ExpectMatchesOracle(**built);
          ++tableaux;
        }
        return true;
      });
  ASSERT_TRUE(enumerated.ok()) << enumerated.status().ToString();
  EXPECT_EQ(tableaux, 3);  // S1 designates one or both of its two facts
}

}  // namespace
}  // namespace psc
