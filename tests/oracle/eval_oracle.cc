#include "oracle/eval_oracle.h"

#include <string>
#include <vector>

#include "psc/relational/builtin.h"

namespace psc::oracle {

namespace {

/// Depth-first join over the relational body atoms. Built-ins are evaluated
/// eagerly as soon as all their arguments are bound, pruning the search.
class Evaluator {
 public:
  Evaluator(const ConjunctiveQuery& query, const Database& db,
            const std::function<bool(const Valuation&)>& fn)
      : query_(query), db_(db), fn_(fn) {}

  /// Returns false iff the callback requested an early stop.
  Result<bool> Run(const Valuation& initial) {
    valuation_ = initial;
    builtin_done_.assign(query_.builtin_body().size(), 0);
    done_trail_.clear();
    return Recurse(0);
  }

 private:
  /// Reverts `builtin_done_` flags set at or after `mark` on destruction,
  /// so sibling branches (with different bindings) re-evaluate them.
  class DoneTrailGuard {
   public:
    DoneTrailGuard(std::vector<char>* done, std::vector<size_t>* trail)
        : done_(done), trail_(trail), mark_(trail->size()) {}
    ~DoneTrailGuard() {
      while (trail_->size() > mark_) {
        (*done_)[trail_->back()] = 0;
        trail_->pop_back();
      }
    }

   private:
    std::vector<char>* done_;
    std::vector<size_t>* trail_;
    size_t mark_;
  };

  Result<bool> Recurse(size_t index) {
    DoneTrailGuard guard(&builtin_done_, &done_trail_);
    // Evaluate any built-in whose arguments just became fully bound.
    for (size_t j = 0; j < query_.builtin_body().size(); ++j) {
      if (builtin_done_[j]) continue;
      const Atom& atom = query_.builtin_body()[j];
      auto ground = GroundTerms(atom.terms(), valuation_);
      if (!ground.ok()) continue;  // not yet fully bound
      PSC_ASSIGN_OR_RETURN(const bool holds,
                           EvalBuiltin(atom.predicate(), *ground));
      if (!holds) return true;  // prune this branch, keep searching
      builtin_done_[j] = 1;
      done_trail_.push_back(j);
    }
    if (index == query_.relational_body().size()) {
      return fn_(valuation_);
    }
    const Atom& atom = query_.relational_body()[index];
    const Relation& relation = db_.GetRelation(atom.predicate());
    for (const Tuple& tuple : relation) {
      if (tuple.size() != atom.arity()) continue;
      std::vector<std::string> newly_bound;
      if (TryUnify(atom, tuple, &newly_bound)) {
        auto deeper = Recurse(index + 1);
        Unbind(newly_bound);
        if (!deeper.ok()) return deeper.status();
        if (!*deeper) return false;
      } else {
        Unbind(newly_bound);
      }
    }
    return true;
  }

  bool TryUnify(const Atom& atom, const Tuple& tuple,
                std::vector<std::string>* newly_bound) {
    for (size_t pos = 0; pos < tuple.size(); ++pos) {
      const Term& term = atom.terms()[pos];
      if (term.is_constant()) {
        if (term.constant() != tuple[pos]) return false;
        continue;
      }
      auto [it, inserted] = valuation_.emplace(term.var_name(), tuple[pos]);
      if (inserted) {
        newly_bound->push_back(term.var_name());
      } else if (it->second != tuple[pos]) {
        return false;
      }
    }
    return true;
  }

  void Unbind(const std::vector<std::string>& names) {
    for (const std::string& name : names) valuation_.erase(name);
  }

  const ConjunctiveQuery& query_;
  const Database& db_;
  const std::function<bool(const Valuation&)>& fn_;
  Valuation valuation_;
  std::vector<char> builtin_done_;
  std::vector<size_t> done_trail_;
};

}  // namespace

Result<bool> ForEachValuation(const ConjunctiveQuery& query,
                              const Database& db, const Valuation& initial,
                              const std::function<bool(const Valuation&)>& fn) {
  Evaluator evaluator(query, db, fn);
  return evaluator.Run(initial);
}

Result<Relation> Evaluate(const ConjunctiveQuery& query, const Database& db) {
  Relation result;
  Status ground_error;
  PSC_ASSIGN_OR_RETURN(
      const bool completed,
      ForEachValuation(query, db, Valuation(),
                       [&](const Valuation& valuation) {
                         auto tuple =
                             GroundTerms(query.head().terms(), valuation);
                         if (!tuple.ok()) {
                           ground_error = tuple.status();
                           return false;
                         }
                         result.insert(std::move(*tuple));
                         return true;
                       }));
  if (!completed && !ground_error.ok()) return ground_error;
  return result;
}

}  // namespace psc::oracle
