#ifndef PSC_CORE_CERTAIN_ANSWER_H_
#define PSC_CORE_CERTAIN_ANSWER_H_

#include <cstdint>

#include "psc/algebra/expression.h"
#include "psc/limits/budget.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Result of the template-based certain-answer computation.
struct CertainAnswerBound {
  /// Tuples guaranteed to be in Q(D) for every D ∈ poss(S).
  Relation certain;
  /// Allowable combinations U examined.
  uint64_t combinations = 0;
  /// True when some combination was skipped (non-ground built-in or
  /// budget), in which case `certain` may be an over-tight bound of an
  /// already-sound approximation; it never becomes unsound.
  bool truncated = false;
};

/// \brief Sound under-approximation of the certain answer Q₊(S) for
/// arbitrary conjunctive views — the paper's Section 6 direction of
/// computing query answers from the Theorem 4.1 representation, in the
/// style of Grahne–Mendelzon's tableau techniques [6].
///
/// Method: for every allowable combination U, the tableau T^U(S) frozen
/// with labeled nulls is a *naive table* representing every database of
/// rep(𝒯^U(S)) (each such database extends an instantiation of the
/// tableau, and conjunctive plans are monotone). Evaluating the plan under
/// certain-semantics — ordered comparisons touching a null never hold,
/// equality on nulls holds only for the same label, answer tuples
/// containing nulls are dropped — yields tuples present in Q(D) for every
/// D ∈ rep(𝒯^U(S)); intersecting over U gives tuples certain for all of
/// poss(S) = ⋃_U rep(𝒯^U(S)).
///
/// Sound, not complete: naive tables cannot express disjunctive
/// reasoning, and combinations whose cardinality constraints are
/// unsatisfiable still participate in the intersection (detecting their
/// emptiness is itself hard). Unlike QuerySystem::AnswerExact, it never
/// enumerates possible worlds, so it works for general views whose world
/// sets are unbounded.
///
/// The bound assumes poss(S) ≠ ∅. Query answers over an empty poss(S)
/// are undefined (`QuerySystem::AnswerExact` fails with Inconsistent),
/// yet a combination whose cardinality constraints no database meets
/// still yields a tableau, so the bound would list tuples there. Callers
/// decide consistency first: `psc certain` runs the check `psc check`
/// runs and fails on INCONSISTENT.
///
/// Errors: Inconsistent when every combination is unrealizable;
/// InvalidArgument for a null plan.
///
/// A tripped cooperative `budget` stops the scan and sets `truncated`
/// instead of failing: the intersection over the combinations seen so far
/// is already a sound under-approximation.
Result<CertainAnswerBound> CertainAnswerLowerBound(
    const SourceCollection& collection, const AlgebraExprPtr& query,
    const limits::Budget& budget = limits::Budget());

}  // namespace psc

#endif  // PSC_CORE_CERTAIN_ANSWER_H_
