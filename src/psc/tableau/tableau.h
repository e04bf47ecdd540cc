#ifndef PSC_TABLEAU_TABLEAU_H_
#define PSC_TABLEAU_TABLEAU_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "psc/relational/atom.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"

namespace psc {

/// \brief A tableau over a global schema: a finite set of atoms that may
/// contain variables (Section 4 of the paper).
using Tableau = std::set<Atom>;

/// \brief A substitution {x₁/e₁, …, x_p/e_p}: a finite map from variable
/// names to terms (constants or variables).
using Substitution = std::map<std::string, Term>;

/// Applies a substitution to a term (identity on constants and on
/// variables outside the substitution's domain).
Term ApplySubstitution(const Term& term, const Substitution& subst);

/// Applies a substitution to every term of an atom.
Atom ApplySubstitution(const Atom& atom, const Substitution& subst);

/// Applies a substitution to every atom of a tableau.
Tableau ApplySubstitution(const Tableau& tableau, const Substitution& subst);

/// All variable names occurring in a tableau.
std::set<std::string> TableauVariables(const Tableau& tableau);

/// \brief Enumerates every valuation σ embedding `tableau` into `db`
/// (σ(tableau) ⊆ D). `fn` returns false to stop early; the return value is
/// false iff stopped early.
///
/// The embedding search is a backtracking join, the same procedure that
/// evaluates conjunctive-query bodies.
bool ForEachEmbedding(const Tableau& tableau, const Database& db,
                      const std::function<bool(const Valuation&)>& fn);

/// True iff at least one embedding of `tableau` into `db` exists.
bool HasEmbedding(const Tableau& tableau, const Database& db);

/// "{R(a, x), S(b, c)}" rendering in canonical atom order.
std::string TableauToString(const Tableau& tableau);

/// \brief Freezes a tableau into a concrete database by replacing every
/// variable with a distinct fresh string constant ("⊥0", "⊥1", …, offset
/// by `fresh_offset`) — the canonical database of tableau theory.
Database FreezeTableau(const Tableau& tableau, size_t fresh_offset = 0);

/// \brief Freezes after a *ground-merge* pass: while some atom with
/// variables unifies with a ground atom of the same tableau, adopt that
/// unifier, grounding its variables; remaining variables get fresh
/// constants.
///
/// Merge order (the contract; the result depends on it): each step takes
/// the first non-ground atom, in tableau order, that unifies with a ground
/// atom, merges it onto the first such ground atom in tableau order, and
/// applies the unifier to the whole tableau before the next step. The
/// fixpoint indexes ground atoms by predicate and atoms by variable, so a
/// step costs about the atoms sharing the merged atom's variables, not
/// the tableau.
///
/// Heuristic: merging can be necessary when another source's completeness
/// claim forbids invented constants (an exact station catalog, say), while
/// pure freezing is necessary when merging would conflate distinct
/// existential witnesses. Consistency search tries both candidates and
/// verifies each directly, so the choice is never trusted blindly.
Database FreezeTableauWithGroundMerge(const Tableau& tableau);

}  // namespace psc

#endif  // PSC_TABLEAU_TABLEAU_H_
