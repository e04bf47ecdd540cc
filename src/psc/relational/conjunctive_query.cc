#include "psc/relational/conjunctive_query.h"

#include <algorithm>
#include <optional>

#include "psc/relational/builtin.h"
#include "psc/relational/query_plan.h"
#include "psc/util/string_util.h"

namespace psc {

Result<Tuple> GroundTerms(const std::vector<Term>& terms,
                          const Valuation& valuation) {
  Tuple tuple;
  tuple.reserve(terms.size());
  for (const Term& term : terms) {
    if (term.is_constant()) {
      tuple.push_back(term.constant());
    } else {
      auto it = valuation.find(term.var_name());
      if (it == valuation.end()) {
        return Status::InvalidArgument(
            StrCat("unbound variable '", term.var_name(), "'"));
      }
      tuple.push_back(it->second);
    }
  }
  return tuple;
}

ConjunctiveQuery::ConjunctiveQuery(Atom head, std::vector<Atom> body)
    : head_(std::move(head)), body_(std::move(body)) {
  for (const Atom& atom : body_) {
    if (IsBuiltinPredicate(atom.predicate())) {
      builtin_body_.push_back(atom);
    } else {
      relational_body_.push_back(atom);
    }
  }
}

Result<ConjunctiveQuery> ConjunctiveQuery::Create(Atom head,
                                                  std::vector<Atom> body) {
  if (IsBuiltinPredicate(head.predicate())) {
    return Status::InvalidArgument(
        StrCat("head predicate '", head.predicate(), "' is a built-in"));
  }
  std::set<std::string> relational_vars;
  std::map<std::string, size_t> arities;
  for (const Atom& atom : body) {
    if (IsBuiltinPredicate(atom.predicate())) {
      if (atom.arity() != 2) {
        return Status::InvalidArgument(
            StrCat("built-in '", atom.predicate(), "' expects 2 arguments, got ",
                   atom.arity()));
      }
      continue;
    }
    auto [it, inserted] = arities.emplace(atom.predicate(), atom.arity());
    if (!inserted && it->second != atom.arity()) {
      return Status::InvalidArgument(
          StrCat("relation '", atom.predicate(), "' used with arities ",
                 it->second, " and ", atom.arity()));
    }
    for (const std::string& var : atom.Variables()) {
      relational_vars.insert(var);
    }
  }
  for (const std::string& var : head.Variables()) {
    if (relational_vars.count(var) == 0) {
      return Status::InvalidArgument(
          StrCat("unsafe query: head variable '", var,
                 "' does not occur in a relational body atom"));
    }
  }
  for (const Atom& atom : body) {
    if (!IsBuiltinPredicate(atom.predicate())) continue;
    for (const std::string& var : atom.Variables()) {
      if (relational_vars.count(var) == 0) {
        return Status::InvalidArgument(
            StrCat("unsafe query: built-in variable '", var,
                   "' does not occur in a relational body atom"));
      }
    }
  }
  return ConjunctiveQuery(std::move(head), std::move(body));
}

ConjunctiveQuery ConjunctiveQuery::Identity(const std::string& relation,
                                            size_t arity,
                                            const std::string& view_name) {
  std::vector<Term> terms;
  terms.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    terms.push_back(Term::Var(StrCat("x", i + 1)));
  }
  const std::string name = view_name.empty() ? "V_" + relation : view_name;
  Atom head(name, terms);
  Atom body_atom(relation, terms);
  auto result = Create(std::move(head), {std::move(body_atom)});
  PSC_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).ValueOrDie();
}

bool ConjunctiveQuery::IsIdentity() const {
  if (!builtin_body_.empty() || relational_body_.size() != 1) return false;
  const Atom& atom = relational_body_[0];
  if (atom.terms() != head_.terms()) return false;
  std::set<Term> distinct(atom.terms().begin(), atom.terms().end());
  if (distinct.size() != atom.arity()) return false;
  for (const Term& term : atom.terms()) {
    if (!term.is_variable()) return false;
  }
  return true;
}

std::set<std::string> ConjunctiveQuery::Variables() const {
  std::set<std::string> vars = head_.Variables();
  for (const Atom& atom : body_) {
    for (const std::string& var : atom.Variables()) vars.insert(var);
  }
  return vars;
}

Status ConjunctiveQuery::InferSchema(Schema* schema) const {
  for (const Atom& atom : relational_body_) {
    PSC_RETURN_NOT_OK(schema->AddRelation(atom.predicate(), atom.arity()));
  }
  return Status::OK();
}

Result<bool> ConjunctiveQuery::ForEachValuation(
    const Database& db, const Valuation& initial,
    const std::function<bool(const Valuation&)>& fn) const {
  return eval::GetOrCompilePlan(*this, initial)->ForEach(db, initial, fn);
}

Result<Relation> ConjunctiveQuery::Evaluate(const Database& db) const {
  static const Valuation kNoBindings;
  return eval::GetOrCompilePlan(*this, kNoBindings)->Evaluate(db);
}

Result<std::optional<Valuation>> ConjunctiveQuery::UnifyHead(
    const Tuple& head_tuple) const {
  if (head_tuple.size() != head_.arity()) {
    return Status::InvalidArgument(
        StrCat("tuple arity ", head_tuple.size(), " != head arity ",
               head_.arity()));
  }
  Valuation valuation;
  for (size_t pos = 0; pos < head_tuple.size(); ++pos) {
    const Term& term = head_.terms()[pos];
    if (term.is_constant()) {
      if (term.constant() != head_tuple[pos]) return std::optional<Valuation>();
      continue;
    }
    auto [it, inserted] = valuation.emplace(term.var_name(), head_tuple[pos]);
    if (!inserted && it->second != head_tuple[pos]) {
      return std::optional<Valuation>();
    }
  }
  return std::optional<Valuation>(std::move(valuation));
}

Result<std::vector<Valuation>> ConjunctiveQuery::WitnessValuations(
    const Database& db, const Tuple& head_tuple) const {
  PSC_ASSIGN_OR_RETURN(std::optional<Valuation> initial,
                       UnifyHead(head_tuple));
  std::vector<Valuation> witnesses;
  if (!initial.has_value()) return witnesses;
  PSC_RETURN_NOT_OK(ForEachValuation(db, *initial,
                                     [&](const Valuation& valuation) {
                                       witnesses.push_back(valuation);
                                       return true;
                                     })
                        .status());
  // Canonical order: the plan enumerates in its join order, which
  // depends on the initial bindings; sorting makes the witness list — and
  // everything downstream that picks witnesses.front(), like the Lemma 3.1
  // shrink — a function of the witness set alone.
  std::sort(witnesses.begin(), witnesses.end());
  return witnesses;
}

std::string ConjunctiveQuery::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(body_.size());
  for (const Atom& atom : body_) parts.push_back(atom.ToString());
  return StrCat(head_.ToString(), " <- ", Join(parts, ", "));
}

}  // namespace psc
