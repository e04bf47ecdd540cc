#ifndef PSC_COUNTING_CONFIDENCE_H_
#define PSC_COUNTING_CONFIDENCE_H_

#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/limits/budget.h"
#include "psc/util/bigint.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Exact confidence of one base fact:
/// confidence(t_p) = Pr(t_p ∈ D | D ∈ poss(S)) = numerator / world_count.
struct TupleConfidence {
  Tuple tuple;
  /// N_sol(Γ[x_p/1]) — worlds containing the tuple.
  BigInt numerator;
  /// numerator / world_count as a double, for display.
  double confidence = 0.0;
};

/// \brief Exact confidences for every tuple in an instance's universe.
struct ConfidenceTable {
  /// N_sol(Γ) = |poss(S)|. Zero iff the collection is inconsistent.
  BigInt world_count;
  /// One entry per universe tuple, in universe order.
  std::vector<TupleConfidence> entries;

  /// Exact confidence of `tuple`; NotFound for tuples outside the universe.
  Result<double> ConfidenceOf(const Tuple& tuple) const;

  /// Tuples with confidence exactly 1 — the certain base facts.
  std::vector<Tuple> CertainFacts() const;

  /// Tuples with confidence > 0 — the possible base facts.
  std::vector<Tuple> PossibleFacts() const;
};

/// \brief Computes the Section 5.1 confidence table for an identity-view
/// instance using the signature counter.
///
/// Fails with Inconsistent when poss(S) = ∅ (the paper's confidence ratio
/// is only defined for consistent collections).
///
/// With a multi-worker `pool` the underlying count is sharded across
/// workers; the resulting table is bit-identical for any worker count.
/// A tripped cooperative `budget` fails with `budget.ToStatus()`.
Result<ConfidenceTable> ComputeBaseFactConfidences(
    const IdentityInstance& instance, exec::ThreadPool* pool = nullptr,
    const limits::Budget& budget = limits::Budget());

}  // namespace psc

#endif  // PSC_COUNTING_CONFIDENCE_H_
