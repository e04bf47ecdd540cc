#include "psc/core/certain_answer.h"

#include "psc/tableau/template_builder.h"

namespace psc {

namespace {

/// Labeled nulls produced by FreezeTableau are "⊥n" strings.
bool IsFrozenNull(const Value& value) {
  return value.is_string() &&
         value.AsString().rfind("\xE2\x8A\xA5", 0) == 0;  // "⊥" prefix
}

bool TupleHasNull(const Tuple& tuple) {
  for (const Value& value : tuple) {
    if (IsFrozenNull(value)) return true;
  }
  return false;
}

}  // namespace

Result<CertainAnswerBound> CertainAnswerLowerBound(
    const SourceCollection& collection, const AlgebraExprPtr& query,
    const limits::Budget& budget) {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  TemplateBuilder builder(&collection);

  CertainAnswerBound bound;
  bool first = true;
  bool any_realizable = false;
  Status deferred_error;
  PSC_ASSIGN_OR_RETURN(
      const bool completed,
      builder.ForEachAllowableCombination([&](const Combination& combination) {
        // A tripped budget truncates rather than fails: the intersection
        // over a prefix of 𝒰 is still a sound under-approximation.
        if (!budget.Charge()) {
          bound.truncated = true;
          return false;
        }
        ++bound.combinations;
        auto tableau = builder.BuildTableau(combination);
        if (!tableau.ok()) {
          if (tableau.status().code() == StatusCode::kUnimplemented) {
            // Cannot represent this combination; treating it as
            // contributing no certain tuples keeps the bound sound.
            bound.truncated = true;
            bound.certain.clear();
            first = false;
            any_realizable = true;
            return false;  // intersection already empty
          }
          deferred_error = tableau.status();
          return false;
        }
        if (!tableau->has_value()) return true;  // rep(𝒯^U) = ∅
        any_realizable = true;

        const Database naive_table = FreezeTableau(**tableau);
        auto answer = query->EvalCertainWithNulls(naive_table, IsFrozenNull);
        if (!answer.ok()) {
          deferred_error = answer.status();
          return false;
        }
        Relation null_free;
        for (const Tuple& tuple : *answer) {
          if (!TupleHasNull(tuple)) null_free.insert(tuple);
        }
        if (first) {
          bound.certain = std::move(null_free);
          first = false;
        } else {
          Relation intersection;
          for (const Tuple& tuple : bound.certain) {
            if (null_free.count(tuple) > 0) intersection.insert(tuple);
          }
          bound.certain = std::move(intersection);
        }
        // Once empty, no later combination can re-grow the intersection.
        return !bound.certain.empty();
      }));
  if (!completed && !deferred_error.ok()) return deferred_error;
  // Claiming inconsistency requires having seen *every* combination; a
  // truncated scan that found none realizable proves nothing.
  if (!any_realizable && !bound.truncated) {
    return Status::Inconsistent(
        "every allowable combination is unrealizable: poss(S) is empty");
  }
  return bound;
}

}  // namespace psc
