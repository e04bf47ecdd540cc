#ifndef PSC_COUNTING_CONSENSUS_H_
#define PSC_COUNTING_CONSENSUS_H_

#include <string>
#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/limits/budget.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Posterior quality estimates for one source under the uniform
/// distribution on poss(S).
struct SourceConsensus {
  std::string name;
  /// E[s_D(vᵢ)] — expected actual soundness of the source over a random
  /// possible world.
  double expected_soundness = 1.0;
  /// E[c_D(vᵢ)] — expected actual completeness (1 when φᵢ(D) = ∅).
  double expected_completeness = 1.0;
  /// The claimed lower bounds, for comparison.
  double claimed_soundness = 0.0;
  double claimed_completeness = 0.0;
  /// expected − claimed soundness: how much better than its own claim the
  /// consensus of the federation says this source is. Sources whose slack
  /// is much smaller than their peers' are the least corroborated — the
  /// paper's Section 6 "detect the most trustworthy sources" direction,
  /// made concrete as an exact computation. Extension beyond the paper.
  double soundness_slack = 0.0;
};

/// \brief Computes exact expected soundness/completeness for every source
/// of an identity-view instance, by weighting each feasible world shape
/// with its exact BigInt world count:
///
///   E[s_D(vᵢ)] = Σ_shapes weight·Tᵢ / (|vᵢ|·|poss|)        (exact ratio)
///   E[c_D(vᵢ)] = Σ_shapes weight·(Tᵢ/|D|) / |poss|          (per-shape)
///
/// The shapes come from `SignatureCounter::FeasibleShapeTable`, whose walk
/// charges `budget`. Fails with Inconsistent when poss(S) is empty, with
/// ResourceExhausted past `SignatureCounter::kMaxStoredShapes` shapes, and
/// with `budget.ToStatus()` when the budget trips.
Result<std::vector<SourceConsensus>> ComputeSourceConsensus(
    const IdentityInstance& instance,
    const limits::Budget& budget = limits::Budget());

}  // namespace psc

#endif  // PSC_COUNTING_CONSENSUS_H_
