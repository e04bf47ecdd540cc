#ifndef PSC_TESTS_ORACLE_EVAL_ORACLE_H_
#define PSC_TESTS_ORACLE_EVAL_ORACLE_H_

/// \file
/// Reference evaluator for conjunctive queries, linked only by tests and
/// by bench_query_eval's cross-check.
///
/// A depth-first nested-loop join straight from the definition: scan each
/// relational body atom in body order, unify, recurse; evaluate each
/// built-in as soon as its arguments are bound. No reordering, no slots,
/// no indexes, no plan cache and no obs counters, so it shares nothing
/// with the compiled `eval::QueryPlan` that `ConjunctiveQuery::Evaluate`
/// and `ForEachValuation` run, and a disagreement between the two points
/// at the plan.

#include <functional>

#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc::oracle {

/// \brief Same contract as `ConjunctiveQuery::ForEachValuation`:
/// enumerates every valuation extending `initial` that embeds the body
/// into `db` and satisfies all built-ins. Variables of `initial` that are
/// not query variables pass through into each emitted valuation. `fn`
/// returns false to stop; the final return is false iff stopped early.
/// Valuations come in body-atom order, which differs from the compiled
/// plan's order.
Result<bool> ForEachValuation(const ConjunctiveQuery& query,
                              const Database& db, const Valuation& initial,
                              const std::function<bool(const Valuation&)>& fn);

/// \brief φ(D), the set of head tuples; same contract as
/// `ConjunctiveQuery::Evaluate`.
Result<Relation> Evaluate(const ConjunctiveQuery& query, const Database& db);

}  // namespace psc::oracle

#endif  // PSC_TESTS_ORACLE_EVAL_ORACLE_H_
