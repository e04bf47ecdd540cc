#ifndef PSC_CONSISTENCY_HITTING_SET_H_
#define PSC_CONSISTENCY_HITTING_SET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psc/limits/budget.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief An instance of HITTING SET: subsets A₁,…,Aₙ of {0,…,|S|−1} and a
/// budget K. Question: is there A ⊆ S, |A| ≤ K, hitting every Aᵢ?
///
/// HS* (the paper's variant) additionally requires Aₙ to be a singleton;
/// `IsHsStar` checks that syntactic condition.
struct HittingSetInstance {
  int64_t universe_size = 0;
  std::vector<std::vector<int64_t>> subsets;
  int64_t budget = 0;

  /// Validates element ranges, budget ≥ 0, and non-empty subsets (an empty
  /// subset cannot be hit and is rejected rather than silently "no").
  Status Validate() const;

  /// True iff the last subset is a singleton (the HS* promise).
  bool IsHsStar() const;

  std::string ToString() const;
};

/// \brief Outcome of a hitting-set search.
struct HittingSetSolution {
  bool solvable = false;
  /// A hitting set of size ≤ budget when solvable.
  std::vector<int64_t> hitting_set;
  /// Search-tree nodes expanded (work metric).
  uint64_t nodes_expanded = 0;
};

/// \brief Direct branch-and-bound HITTING SET solver (the baseline
/// comparator for the reduction experiments).
///
/// Branches on the elements of a smallest not-yet-hit subset; prunes when
/// the instance's budget K is spent. Exact. Charges `budget` one node per
/// search-tree node and fails with `budget.ToStatus()` when it trips.
Result<HittingSetSolution> SolveHittingSet(
    const HittingSetInstance& instance,
    const limits::Budget& budget = limits::Budget());

/// \brief Lemma 3.3 reduction HS → HS*: adds a fresh element a, the
/// singleton subset {a}, and raises the budget to K+1.
HittingSetInstance ReduceHsToHsStar(const HittingSetInstance& instance);

/// \brief The Theorem 3.2 reduction HS* → CONSISTENCY.
///
/// Builds, over a unary relation R with identity views:
///   Sᵢ = ⟨Id_R, {R(a) : a ∈ Aᵢ}, cᵢ = 1/K, sᵢ = 1/|Aᵢ|⟩.
/// The instance must satisfy the HS* promise (last subset singleton).
Result<SourceCollection> ReduceHsStarToConsistency(
    const HittingSetInstance& instance);

/// \brief Solves HITTING SET end-to-end through the paper's reduction
/// chain: HS → HS* → CONSISTENCY, deciding the final instance with the
/// exact identity-view consistency checker and mapping the witness world
/// back to a hitting set.
Result<HittingSetSolution> SolveHittingSetViaConsistency(
    const HittingSetInstance& instance);

}  // namespace psc

#endif  // PSC_CONSISTENCY_HITTING_SET_H_
