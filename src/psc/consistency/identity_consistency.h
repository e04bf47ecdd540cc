#ifndef PSC_CONSISTENCY_IDENTITY_CONSISTENCY_H_
#define PSC_CONSISTENCY_IDENTITY_CONSISTENCY_H_

#include <optional>

#include "psc/limits/budget.h"
#include "psc/relational/database.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Outcome of an exact consistency check.
struct IdentityConsistencyReport {
  bool consistent = false;
  /// A witness possible world when consistent.
  std::optional<Database> witness;
  /// Count vectors visited by the group enumeration (work metric).
  uint64_t visited_shapes = 0;
};

/// \brief Exact CONSISTENCY decision for the identity-view special case
/// (Corollary 3.4's fragment — already NP-complete).
///
/// Works over the universe ⋃ᵢ vᵢ only, which is sufficient:
/// for identity views, φᵢ(D) = D, so a fact outside every extension adds 1
/// to each completeness denominator |D| without ever entering a numerator
/// |D ∩ vᵢ|, and contributes nothing to soundness. Hence if D ∈ poss(S)
/// then D ∩ ⋃ᵢvᵢ ∈ poss(S) as well, and a witness exists iff one exists
/// inside ⋃ᵢ vᵢ.
///
/// Still worst-case exponential in Σ|vᵢ| (Theorem 3.2), but the signature-
/// group abstraction collapses the 2^N search to count vectors.
/// A tripped cooperative `budget` fails with `budget.ToStatus()`.
Result<IdentityConsistencyReport> CheckIdentityConsistency(
    const SourceCollection& collection,
    const limits::Budget& budget = limits::Budget());

}  // namespace psc

#endif  // PSC_CONSISTENCY_IDENTITY_CONSISTENCY_H_
