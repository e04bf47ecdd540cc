#include "psc/tableau/tableau.h"

#include <unordered_map>
#include <unordered_set>

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {

Term ApplySubstitution(const Term& term, const Substitution& subst) {
  if (term.is_constant()) return term;
  auto it = subst.find(term.var_name());
  return it == subst.end() ? term : it->second;
}

Atom ApplySubstitution(const Atom& atom, const Substitution& subst) {
  std::vector<Term> terms;
  terms.reserve(atom.arity());
  for (const Term& term : atom.terms()) {
    terms.push_back(ApplySubstitution(term, subst));
  }
  return Atom(atom.predicate(), std::move(terms));
}

Tableau ApplySubstitution(const Tableau& tableau, const Substitution& subst) {
  Tableau result;
  for (const Atom& atom : tableau) {
    result.insert(ApplySubstitution(atom, subst));
  }
  return result;
}

std::set<std::string> TableauVariables(const Tableau& tableau) {
  std::set<std::string> vars;
  for (const Atom& atom : tableau) {
    for (const std::string& var : atom.Variables()) vars.insert(var);
  }
  return vars;
}

namespace {

bool EmbedFrom(const std::vector<Atom>& atoms, size_t index, Valuation& sigma,
               const Database& db,
               const std::function<bool(const Valuation&)>& fn) {
  if (index == atoms.size()) return fn(sigma);
  const Atom& atom = atoms[index];
  const Relation& relation = db.GetRelation(atom.predicate());
  for (const Tuple& tuple : relation) {
    if (tuple.size() != atom.arity()) continue;
    std::vector<std::string> newly_bound;
    bool ok = true;
    for (size_t pos = 0; pos < tuple.size() && ok; ++pos) {
      const Term& term = atom.terms()[pos];
      if (term.is_constant()) {
        ok = term.constant() == tuple[pos];
        continue;
      }
      auto [it, inserted] = sigma.emplace(term.var_name(), tuple[pos]);
      if (inserted) {
        newly_bound.push_back(term.var_name());
      } else {
        ok = it->second == tuple[pos];
      }
    }
    if (ok && !EmbedFrom(atoms, index + 1, sigma, db, fn)) {
      for (const std::string& name : newly_bound) sigma.erase(name);
      return false;
    }
    for (const std::string& name : newly_bound) sigma.erase(name);
  }
  return true;
}

}  // namespace

bool ForEachEmbedding(const Tableau& tableau, const Database& db,
                      const std::function<bool(const Valuation&)>& fn) {
  PSC_OBS_COUNTER_INC("tableau.embedding_searches");
  const std::vector<Atom> atoms(tableau.begin(), tableau.end());
  Valuation sigma;
  return EmbedFrom(atoms, 0, sigma, db, fn);
}

bool HasEmbedding(const Tableau& tableau, const Database& db) {
  return !ForEachEmbedding(tableau, db,
                           [](const Valuation&) { return false; });
}

Database FreezeTableau(const Tableau& tableau, size_t fresh_offset) {
  PSC_OBS_SPAN("tableau.freeze");
  PSC_OBS_COUNTER_INC("tableau.freezes");
  Substitution freeze;
  size_t next = fresh_offset;
  for (const std::string& var : TableauVariables(tableau)) {
    freeze[var] = Term::ConstStr(StrCat("\xE2\x8A\xA5", next++));  // "⊥n"
  }
  Database db;
  for (const Atom& atom : ApplySubstitution(tableau, freeze)) {
    Tuple tuple;
    tuple.reserve(atom.arity());
    for (const Term& term : atom.terms()) {
      PSC_CHECK_MSG(term.is_constant(), "frozen atom still has a variable");
      tuple.push_back(term.constant());
    }
    db.AddFact(atom.predicate(), std::move(tuple));
  }
  return db;
}

namespace {

/// True iff `pattern` maps onto the ground atom `ground` position by
/// position: same predicate and arity, equal constants, and each repeated
/// variable meeting one constant.
bool UnifiesOntoGround(const Atom& pattern, const Atom& ground) {
  if (pattern.predicate() != ground.predicate() ||
      pattern.arity() != ground.arity()) {
    return false;
  }
  const std::vector<Term>& terms = pattern.terms();
  const std::vector<Term>& targets = ground.terms();
  for (size_t pos = 0; pos < terms.size(); ++pos) {
    if (terms[pos].is_constant()) {
      if (terms[pos] != targets[pos]) return false;
      continue;
    }
    for (size_t earlier = 0; earlier < pos; ++earlier) {
      if (terms[earlier] == terms[pos] && targets[earlier] != targets[pos]) {
        return false;
      }
    }
  }
  return true;
}

/// \brief The ground-merge fixpoint of FreezeTableauWithGroundMerge.
///
/// Each step picks the first non-ground atom, in tableau order, that
/// unifies with a ground atom, and merges it onto the first such ground
/// atom in tableau order. Three indexes keep a step proportional to the
/// atoms it touches instead of the whole tableau:
///  * `ground_`: the ground atoms by predicate, in tableau order;
///  * `by_variable_`: the non-ground atoms holding each variable, so a
///    merge rewrites only the atoms that share the merged atom's variables;
///  * `matched_`: the non-ground atoms that unify with some ground atom,
///    in tableau order, whose first element is the next step's atom.
///
/// The index sets hold pointers into `atoms_`, whose nodes stay put until
/// erased; an atom leaves every index before it is erased. Ground atoms
/// hold no variable, so no merge ever removes one, and an atom's match can
/// appear only when a new ground atom of its predicate does, or change
/// when the atom itself is rewritten.
class GroundMergeFixpoint {
 public:
  explicit GroundMergeFixpoint(const Tableau& tableau) : atoms_(tableau) {
    for (const Atom& atom : atoms_) {
      if (atom.IsGround()) ground_[atom.predicate()].insert(&atom);
    }
    for (const Atom& atom : atoms_) {
      if (!atom.IsGround()) Track(&atom);
    }
  }

  /// Merges until no non-ground atom unifies with a ground atom; each
  /// merge grounds at least one variable, so this terminates.
  Tableau Run() && {
    while (!matched_.empty()) {
      const Atom& atom = **matched_.begin();
      Merge(atom, *FirstGroundMatch(atom));
    }
    return std::move(atoms_);
  }

 private:
  struct ByAtom {
    bool operator()(const Atom* a, const Atom* b) const { return *a < *b; }
  };
  using AtomSet = std::set<const Atom*, ByAtom>;

  /// The first ground atom, in tableau order, that `atom` unifies with.
  const Atom* FirstGroundMatch(const Atom& atom) const {
    const auto it = ground_.find(atom.predicate());
    if (it == ground_.end()) return nullptr;
    for (const Atom* ground : it->second) {
      if (UnifiesOntoGround(atom, *ground)) return ground;
    }
    return nullptr;
  }

  /// Indexes a non-ground atom under its variables, and in `matched_`
  /// when it unifies with a ground atom.
  void Track(const Atom* atom) {
    for (const Term& term : atom->terms()) {
      if (term.is_variable()) by_variable_[term.var_name()].insert(atom);
    }
    if (FirstGroundMatch(*atom) != nullptr) matched_.insert(atom);
  }

  /// Removes a non-ground atom from every index and from the tableau.
  void Untrack(const Atom* atom) {
    matched_.erase(atom);
    for (const Term& term : atom->terms()) {
      if (!term.is_variable()) continue;
      const auto it = by_variable_.find(term.var_name());
      if (it == by_variable_.end()) continue;
      it->second.erase(atom);
      if (it->second.empty()) by_variable_.erase(it);
    }
    atoms_.erase(*atom);
  }

  /// Maps `atom`'s variables onto `ground`'s constants throughout the
  /// tableau. Only the atoms sharing one of those variables change.
  void Merge(const Atom& atom, const Atom& ground) {
    Substitution unifier;
    std::unordered_set<const Atom*> affected;
    for (size_t pos = 0; pos < atom.arity(); ++pos) {
      const Term& term = atom.terms()[pos];
      if (!term.is_variable()) continue;
      unifier.emplace(term.var_name(), ground.terms()[pos]);
      const auto it = by_variable_.find(term.var_name());
      if (it != by_variable_.end()) {
        affected.insert(it->second.begin(), it->second.end());
      }
    }
    // Every image is taken before its atom is erased and inserted after
    // all are, so the visiting order does not matter. `atom` is among the
    // affected and dangles once they are untracked.
    std::vector<Atom> images;
    images.reserve(affected.size());
    for (const Atom* rewritten : affected) {
      images.push_back(ApplySubstitution(*rewritten, unifier));
      Untrack(rewritten);
    }
    std::vector<const Atom*> new_ground;
    std::vector<const Atom*> new_open;
    for (Atom& image : images) {
      const auto [it, inserted] = atoms_.insert(std::move(image));
      if (!inserted) continue;  // coincides with an atom already present
      if (it->IsGround()) {
        ground_[it->predicate()].insert(&*it);
        new_ground.push_back(&*it);
      } else {
        new_open.push_back(&*it);
      }
    }
    for (const Atom* open : new_open) Track(open);
    // A new ground atom can give a match to an unmatched atom of its
    // predicate; those atoms are contiguous in tableau order.
    for (const Atom* ground_atom : new_ground) {
      const std::string& predicate = ground_atom->predicate();
      for (auto it = atoms_.lower_bound(Atom(predicate, {}));
           it != atoms_.end() && it->predicate() == predicate; ++it) {
        if (!it->IsGround() && matched_.count(&*it) == 0 &&
            UnifiesOntoGround(*it, *ground_atom)) {
          matched_.insert(&*it);
        }
      }
    }
  }

  Tableau atoms_;
  std::map<std::string, AtomSet> ground_;
  std::unordered_map<std::string, std::unordered_set<const Atom*>>
      by_variable_;
  AtomSet matched_;
};

}  // namespace

Database FreezeTableauWithGroundMerge(const Tableau& tableau) {
  PSC_OBS_SPAN("tableau.ground_merge");
  return FreezeTableau(GroundMergeFixpoint(tableau).Run());
}

std::string TableauToString(const Tableau& tableau) {
  std::vector<std::string> parts;
  parts.reserve(tableau.size());
  for (const Atom& atom : tableau) parts.push_back(atom.ToString());
  return StrCat("{", Join(parts, ", "), "}");
}

}  // namespace psc
