#ifndef PSC_COUNTING_LINEAR_SYSTEM_H_
#define PSC_COUNTING_LINEAR_SYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/util/bigint.h"
#include "psc/util/result.h"

namespace psc {

/// \brief One inequality Σ_j coefficients[j]·x_j ≥ rhs over 0/1 variables.
struct LinearInequality {
  std::vector<int64_t> coefficients;
  int64_t rhs = 0;
  /// Which source and which bound produced this row (for diagnostics).
  std::string label;
};

/// \brief The explicit Section 5.1 system Γ over 0/1 variables x₁,…,x_N,
/// one per universe fact, with two rows per source:
///
///   completeness:  Σ_{tⱼ∈vᵢ} (denᵢ−numᵢ)·xⱼ − Σ_{tⱼ∉vᵢ} numᵢ·xⱼ ≥ 0
///                  (cᵢ = numᵢ/denᵢ scaled to integers)
///   soundness:     Σ_{tⱼ∈vᵢ} xⱼ ≥ ⌈sᵢ·|vᵢ|⌉
///
/// The 0 ≤ xⱼ ≤ 1 rows of the paper are implicit in the Boolean variables.
/// `CountSolutionsBruteForce` realizes the paper's "generate all the
/// possible global databases (in exponential time)" remark literally; it is
/// the ground truth the SignatureCounter is validated against (and the
/// baseline of the E6 ablation).
class LinearSystem {
 public:
  LinearSystem() = default;

  /// Builds Γ from a compiled identity instance.
  static Result<LinearSystem> FromIdentityInstance(
      const IdentityInstance& instance);

  size_t num_variables() const { return num_variables_; }
  const std::vector<LinearInequality>& rows() const { return rows_; }

  /// Largest N the 2^N counts enumerate. Assignments are N-bit masks, so
  /// the bound must stay below 64, and 2^30 assignments are already
  /// minutes of work for an oracle.
  static constexpr size_t kMaxVariables = 30;

  /// Evaluates every row on a 0/1 assignment (bit j of `mask` is x_j).
  bool IsSatisfiedBy(uint64_t mask) const;

  /// \brief Counts solutions by enumerating all 2^N assignments.
  /// Fails with ResourceExhausted when N > `kMaxVariables`.
  Result<BigInt> CountSolutionsBruteForce() const;

  /// \brief Counts solutions with x_var fixed to `value` (Γ[x_p/1]).
  Result<BigInt> CountSolutionsWithFixed(size_t var, bool value) const;

  /// Multi-line rendering of all rows.
  std::string ToString() const;

 private:
  size_t num_variables_ = 0;
  std::vector<LinearInequality> rows_;
};

}  // namespace psc

#endif  // PSC_COUNTING_LINEAR_SYSTEM_H_
