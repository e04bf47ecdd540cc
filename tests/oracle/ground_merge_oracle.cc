#include "oracle/ground_merge_oracle.h"

#include <optional>

namespace psc::oracle {
namespace {

/// Unifier mapping the variables of `pattern` onto the constants of
/// `ground`, or nullopt when they clash.
std::optional<Substitution> UnifyOntoGround(const Atom& pattern,
                                            const Atom& ground) {
  if (pattern.predicate() != ground.predicate() ||
      pattern.arity() != ground.arity()) {
    return std::nullopt;
  }
  Substitution unifier;
  for (size_t pos = 0; pos < pattern.arity(); ++pos) {
    const Term& term = pattern.terms()[pos];
    const Term& target = ground.terms()[pos];
    if (term.is_constant()) {
      if (term != target) return std::nullopt;
      continue;
    }
    auto [it, inserted] = unifier.emplace(term.var_name(), target);
    if (!inserted && it->second != target) return std::nullopt;
  }
  return unifier;
}

}  // namespace

Database FreezeTableauWithGroundMerge(const Tableau& tableau) {
  Tableau current = tableau;
  bool changed = true;
  // Each merge grounds at least one variable, so this terminates.
  while (changed) {
    changed = false;
    for (const Atom& atom : current) {
      if (atom.IsGround()) continue;
      for (const Atom& ground : current) {
        if (!ground.IsGround()) continue;
        const std::optional<Substitution> unifier =
            UnifyOntoGround(atom, ground);
        if (unifier.has_value()) {
          current = ApplySubstitution(current, *unifier);
          changed = true;
          break;
        }
      }
      if (changed) break;
    }
  }
  return FreezeTableau(current);
}

}  // namespace psc::oracle
