#include "psc/tableau/template_builder.h"

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/relational/builtin.h"
#include "psc/util/combinatorics.h"
#include "psc/util/string_util.h"

namespace psc {

TemplateBuilder::TemplateBuilder(const SourceCollection* collection)
    : collection_(collection) {
  PSC_CHECK(collection_ != nullptr);
}

namespace {

/// Converts a valuation (var → Value) into a substitution (var → Term).
Substitution ToSubstitution(const Valuation& valuation) {
  Substitution subst;
  for (const auto& [var, value] : valuation) {
    subst[var] = Term::Const(value);
  }
  return subst;
}

/// Evaluates the view's built-ins under `subst`.
/// Returns false (=> rep empty) when a ground built-in fails; Unimplemented
/// when a built-in stays non-ground.
Result<bool> CheckGroundBuiltins(const ConjunctiveQuery& view,
                                 const Substitution& subst) {
  for (const Atom& builtin : view.builtin_body()) {
    const Atom grounded = ApplySubstitution(builtin, subst);
    std::vector<Value> args;
    args.reserve(grounded.arity());
    for (const Term& term : grounded.terms()) {
      if (term.is_variable()) {
        return Status::Unimplemented(
            StrCat("built-in ", builtin.ToString(), " of view ",
                   view.head().ToString(),
                   " is not grounded by the head unifier; the Section 4 "
                   "template construction covers pure conjunctive views"));
      }
      args.push_back(term.constant());
    }
    PSC_ASSIGN_OR_RETURN(const bool holds,
                         EvalBuiltin(grounded.predicate(), args));
    if (!holds) return false;
  }
  return true;
}

}  // namespace

bool TemplateBuilder::IsAllowable(const Combination& combination) const {
  if (combination.size() != collection_->size()) return false;
  for (size_t i = 0; i < collection_->size(); ++i) {
    const SourceDescriptor& source = collection_->source(i);
    const Relation& u_i = combination[i];
    if (static_cast<int64_t>(u_i.size()) < source.MinSoundFacts()) return false;
    for (const Tuple& tuple : u_i) {
      if (source.extension().count(tuple) == 0) return false;
    }
  }
  return true;
}

Result<std::optional<Tableau>> TemplateBuilder::BuildTableau(
    const Combination& combination) const {
  if (combination.size() != collection_->size()) {
    return Status::InvalidArgument(
        StrCat("combination has ", combination.size(), " subsets, expected ",
               collection_->size()));
  }
  PSC_OBS_SPAN("tableau.build");
  PSC_OBS_COUNTER_INC("tableau.templates_built");
  Tableau tableau;
  for (size_t i = 0; i < collection_->size(); ++i) {
    const SourceDescriptor& source = collection_->source(i);
    const ConjunctiveQuery& view = source.view();
    const Relation& u_i = combination[i];

    // Validate uᵢ ⊆ vᵢ and the soundness threshold |uᵢ| ≥ ⌈sᵢ|vᵢ|⌉.
    for (const Tuple& tuple : u_i) {
      if (source.extension().count(tuple) == 0) {
        return Status::InvalidArgument(
            StrCat("subset tuple ", TupleToString(tuple),
                   " is not in the extension of source '", source.name(),
                   "'"));
      }
    }
    if (static_cast<int64_t>(u_i.size()) < source.MinSoundFacts()) {
      return Status::InvalidArgument(
          StrCat("subset for source '", source.name(), "' has ", u_i.size(),
                 " tuples, below the soundness threshold ",
                 source.MinSoundFacts()));
    }

    // T^U(Sᵢ): one instantiated body per designated fact.
    size_t fact_index = 0;
    for (const Tuple& u : u_i) {
      PSC_ASSIGN_OR_RETURN(std::optional<Valuation> unifier,
                           view.UnifyHead(u));
      if (!unifier.has_value()) {
        return std::optional<Tableau>();  // u ∉ φ(D) for any D
      }
      Substitution subst = ToSubstitution(*unifier);
      // Existential variables renamed apart per (source, fact).
      for (const std::string& var : view.Variables()) {
        if (subst.count(var) == 0) {
          subst[var] = Term::Var(StrCat("$e_", i, "_", fact_index, "_", var));
        }
      }
      PSC_ASSIGN_OR_RETURN(const bool builtins_hold,
                           CheckGroundBuiltins(view, subst));
      if (!builtins_hold) return std::optional<Tableau>();
      for (const Atom& atom : view.relational_body()) {
        tableau.insert(ApplySubstitution(atom, subst));
      }
      ++fact_index;
    }
  }
  return std::optional<Tableau>(std::move(tableau));
}

Result<std::optional<DatabaseTemplate>> TemplateBuilder::Build(
    const Combination& combination) const {
  PSC_ASSIGN_OR_RETURN(std::optional<Tableau> tableau,
                       BuildTableau(combination));
  if (!tableau.has_value()) return std::optional<DatabaseTemplate>();

  std::vector<Constraint> constraints;
  for (size_t i = 0; i < collection_->size(); ++i) {
    const SourceDescriptor& source = collection_->source(i);
    const ConjunctiveQuery& view = source.view();
    const Relation& u_i = combination[i];

    // C^U(Sᵢ): cardinality cap |φᵢ(D)| ≤ mᵢ = ⌊|uᵢ|/cᵢ⌋, only for cᵢ > 0.
    const Rational& c_i = source.completeness_bound();
    if (c_i.IsZero()) continue;
    if (!view.builtin_body().empty()) {
      return Status::Unimplemented(
          StrCat("view of source '", source.name(),
                 "' has built-ins; the completeness cardinality constraint "
                 "of Section 4 is defined for pure conjunctive views"));
    }
    const int64_t m_i = c_i.DivFloor(static_cast<int64_t>(u_i.size()));
    if (m_i + 1 > static_cast<int64_t>(kMaxCompletenessCopies)) {
      return Status::ResourceExhausted(
          StrCat("completeness constraint for source '", source.name(),
                 "' needs ", m_i + 1, " body copies, above the limit of ",
                 kMaxCompletenessCopies));
    }

    Constraint constraint;
    constraint.label = StrCat(source.name(), ":|view(D)|<=", m_i);
    // Per copy s, fresh variables for head variables ($h) and existential
    // variables ($c).
    std::vector<Substitution> copy_substs;
    for (int64_t s = 0; s <= m_i; ++s) {
      Substitution subst;
      const std::set<std::string> head_vars = view.head().Variables();
      for (const std::string& var : view.Variables()) {
        const char* kind = head_vars.count(var) > 0 ? "$h_" : "$c_";
        subst[var] = Term::Var(StrCat(kind, i, "_", s, "_", var));
      }
      for (const Atom& atom : view.relational_body()) {
        constraint.pattern.insert(ApplySubstitution(atom, subst));
      }
      copy_substs.push_back(std::move(subst));
    }
    // θ_{p,r}: copy p's head variables equal copy r's.
    for (int64_t p = 0; p <= m_i; ++p) {
      for (int64_t r = 0; r <= m_i; ++r) {
        if (p == r) continue;
        Substitution theta;
        for (const std::string& var : view.head().Variables()) {
          const Term& from = copy_substs[static_cast<size_t>(p)].at(var);
          const Term& to = copy_substs[static_cast<size_t>(r)].at(var);
          theta[from.var_name()] = to;
        }
        constraint.options.push_back(std::move(theta));
      }
    }
    constraints.push_back(std::move(constraint));
    PSC_OBS_COUNTER_INC("tableau.constraints_emitted");
  }

  return std::optional<DatabaseTemplate>(
      DatabaseTemplate({std::move(*tableau)}, std::move(constraints)));
}

Result<bool> TemplateBuilder::ForEachAllowableCombination(
    const std::function<bool(const Combination&)>& fn) const {
  const size_t n = collection_->size();
  // Materialize extensions as vectors for subset indexing.
  std::vector<std::vector<Tuple>> extensions(n);
  for (size_t i = 0; i < n; ++i) {
    const Relation& v_i = collection_->source(i).extension();
    extensions[i].assign(v_i.begin(), v_i.end());
  }

  // Subsets are generated directly (never scanned out of a 2^k mask
  // space), largest first: the full extension uᵢ = vᵢ is the most likely
  // consistency witness, so callers that stop early see it immediately.
  Combination combination(n);
  bool budget_tripped = false;
  std::function<bool(size_t)> recurse = [&](size_t i) -> bool {
    if (i == n) {
      if (!budget_.Charge()) {
        budget_tripped = true;
        return false;
      }
      PSC_OBS_COUNTER_INC("tableau.combinations_enumerated");
      return fn(combination);
    }
    const int64_t size = static_cast<int64_t>(extensions[i].size());
    const int64_t min_size = collection_->source(i).MinSoundFacts();
    for (int64_t subset_size = size; subset_size >= min_size;
         --subset_size) {
      const bool keep_going = ForEachSubsetOfSize(
          size, subset_size, [&](const std::vector<int64_t>& picks) {
            combination[i].clear();
            for (const int64_t pick : picks) {
              combination[i].insert(extensions[i][static_cast<size_t>(pick)]);
            }
            return recurse(i + 1);
          });
      if (!keep_going) return false;
    }
    return true;
  };
  const bool completed = recurse(0);
  if (budget_tripped) return budget_.ToStatus();
  return completed;
}

BigInt TemplateBuilder::CountAllowableCombinations() const {
  BigInt total(1);
  for (const SourceDescriptor& source : collection_->sources()) {
    const int64_t k = static_cast<int64_t>(source.extension_size());
    const std::vector<BigInt> row = BinomialRow(k);
    BigInt per_source;
    for (int64_t j = source.MinSoundFacts(); j <= k; ++j) {
      per_source += row[static_cast<size_t>(j)];
    }
    total = total * per_source;
  }
  return total;
}

Result<bool> TemplateBuilder::FamilyContains(const Database& db) const {
  bool found = false;
  Status build_error;
  PSC_ASSIGN_OR_RETURN(
      const bool completed,
      ForEachAllowableCombination([&](const Combination& combination) {
        auto built = Build(combination);
        if (!built.ok()) {
          build_error = built.status();
          return false;
        }
        if (built->has_value() && (*built)->RepContains(db)) {
          found = true;
          return false;
        }
        return true;
      }));
  if (!completed && !build_error.ok()) return build_error;
  return found;
}

}  // namespace psc
