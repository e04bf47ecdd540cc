#ifndef PSC_TABLEAU_TEMPLATE_BUILDER_H_
#define PSC_TABLEAU_TEMPLATE_BUILDER_H_

#include <functional>
#include <optional>
#include <vector>

#include "psc/limits/budget.h"
#include "psc/source/source_collection.h"
#include "psc/tableau/database_template.h"
#include "psc/util/bigint.h"
#include "psc/util/result.h"

namespace psc {

/// \brief A combination U = (u₁,…,uₙ): per source, the subset uᵢ ⊆ vᵢ of
/// extension tuples designated as sound (uᵢ plays the role of φᵢ(D) ∩ vᵢ).
using Combination = std::vector<Relation>;

/// \brief Builds the Theorem 4.1 database templates 𝒯^U(S).
///
/// For a fixed allowable combination U (|uᵢ| ≥ ⌈sᵢ|vᵢ|⌉):
///
///  * the tableau T^U(S) contains, for every source i and fact u ∈ uᵢ, the
///    body of φᵢ instantiated by the head unifier of u, with existential
///    variables renamed apart per (i, u) — forcing uᵢ ⊆ φᵢ(D);
///  * for every source with cᵢ > 0, a constraint (V^U(Sᵢ), Θ^U(Sᵢ)) with
///    mᵢ+1 = ⌊|uᵢ|/cᵢ⌋+1 fresh copies of the body whose substitutions
///    θ_{p,r} force two copies to agree — capping |φᵢ(D)| ≤ mᵢ.
///
/// Theorem 4.1: poss(S) = ⋃_{U allowable} rep(𝒯^U(S)).
///
/// Built-in atoms cannot be expressed inside tableaux; the builder supports
/// views whose built-ins become ground under the head unifier (this always
/// holds for identity views and for views with no built-ins). A ground
/// built-in that evaluates to false makes rep(𝒯^U) empty — reported as
/// std::nullopt. Views with non-ground built-ins are Unimplemented, as the
/// paper's construction (Section 4) is stated for pure conjunctive views.
class TemplateBuilder {
 public:
  /// Body copies one completeness constraint may hold. A cap of m needs
  /// m+1 copies of the view body and (m+1)·m pairing substitutions θ_{p,r},
  /// so the constraint grows quadratically in m = ⌊|uᵢ|/cᵢ⌋; past this
  /// bound (about 65,000 substitutions) Build refuses instead.
  static constexpr size_t kMaxCompletenessCopies = 256;

  /// `collection` must outlive the builder.
  explicit TemplateBuilder(const SourceCollection* collection);

  /// \brief Builds 𝒯^U(S); nullopt when the combination is unrealizable
  /// (rep(𝒯^U) = ∅ because a designated fact contradicts its view).
  ///
  /// Errors: combination size/content invalid; |uᵢ| below the soundness
  /// threshold; non-ground built-ins; a completeness cap needing more than
  /// `kMaxCompletenessCopies` body copies (ResourceExhausted).
  Result<std::optional<DatabaseTemplate>> Build(
      const Combination& combination) const;

  /// \brief Builds only the tableau T^U(S) (no cardinality constraints).
  ///
  /// Useful to consistency search: a candidate database frozen from the
  /// tableau is verified directly against poss(S), so the constraints —
  /// which are what makes built-ins inexpressible — are not needed.
  /// nullopt when the combination is unrealizable.
  Result<std::optional<Tableau>> BuildTableau(
      const Combination& combination) const;

  /// \brief Enumerates every allowable combination
  /// 𝒰 = { (u₁,…,uₙ) : uᵢ ⊆ vᵢ, |uᵢ| ≥ ⌈sᵢ|vᵢ|⌉ }.
  /// `fn` returns false to stop; result is false iff stopped early.
  /// Exponential in Σ|vᵢ| — this is the Theorem 4.1 union, not a fast path.
  /// A tripped builder budget (see SetBudget) fails the enumeration with
  /// `budget.ToStatus()`; one node is charged per combination produced.
  Result<bool> ForEachAllowableCombination(
      const std::function<bool(const Combination&)>& fn) const;

  /// \brief Installs a cooperative deadline / node budget observed by
  /// ForEachAllowableCombination (and through it FamilyContains). Callers
  /// that meter combinations themselves — e.g. the consistency search's
  /// own callbacks — should leave the builder budget unset to avoid
  /// charging each combination twice.
  void SetBudget(limits::Budget budget) { budget_ = std::move(budget); }

  /// |𝒰| = ∏ᵢ Σ_{j ≥ tᵢ} C(kᵢ, j).
  BigInt CountAllowableCombinations() const;

  /// \brief U ∈ 𝒰? — right shape, uᵢ ⊆ vᵢ, and |uᵢ| ≥ ⌈sᵢ|vᵢ|⌉ for all i.
  /// Cheap (no tableau built). Unlike Build, violations return false
  /// rather than an error: the delta engine uses this to test whether a
  /// combination recorded before a mutation is still allowable after the
  /// extensions (and thus the tᵢ thresholds) moved.
  bool IsAllowable(const Combination& combination) const;

  /// \brief Membership in ⋃_U rep(𝒯^U(S)) — the right-hand side of
  /// Theorem 4.1, decided by enumeration over 𝒰.
  Result<bool> FamilyContains(const Database& db) const;

 private:
  const SourceCollection* collection_;
  limits::Budget budget_;
};

}  // namespace psc

#endif  // PSC_TABLEAU_TEMPLATE_BUILDER_H_
