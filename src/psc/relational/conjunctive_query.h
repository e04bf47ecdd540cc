#ifndef PSC_RELATIONAL_CONJUNCTIVE_QUERY_H_
#define PSC_RELATIONAL_CONJUNCTIVE_QUERY_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "psc/relational/atom.h"
#include "psc/relational/database.h"
#include "psc/relational/schema.h"
#include "psc/util/result.h"

namespace psc {

/// \brief A valuation: a mapping from variable names to domain constants.
using Valuation = std::map<std::string, Value>;

/// \brief Applies a valuation to an atom's terms, producing a ground tuple.
/// Errors with InvalidArgument if some variable is unbound.
Result<Tuple> GroundTerms(const std::vector<Term>& terms,
                          const Valuation& valuation);

/// \brief A safe conjunctive query / view definition
///   head(φ) ← body(φ)
/// where the head is an atom over a local relation name and the body is a
/// sequence of atoms over global relation names plus built-in filters.
///
/// Validation enforced by `Create`:
///  * safety: every head variable occurs in a non-built-in body atom;
///  * range restriction: every variable of a built-in atom occurs in a
///    non-built-in body atom;
///  * built-ins are known and binary; the head predicate is not a built-in;
///  * body relations are used with a consistent arity.
class ConjunctiveQuery {
 public:
  /// An empty, invalid query; use `Create`.
  ConjunctiveQuery() = default;

  /// \brief Validates and constructs a query.
  static Result<ConjunctiveQuery> Create(Atom head, std::vector<Atom> body);

  /// \brief The identity view Id_R: V(x₁,…,x_k) ← R(x₁,…,x_k).
  ///
  /// `view_name` defaults to "V_" + relation.
  static ConjunctiveQuery Identity(const std::string& relation, size_t arity,
                                   const std::string& view_name = "");

  const Atom& head() const { return head_; }
  /// All body atoms, in the original order (built-ins included).
  const std::vector<Atom>& body() const { return body_; }

  /// Non-built-in body atoms — the atoms that contribute facts to D.
  const std::vector<Atom>& relational_body() const { return relational_body_; }
  /// Built-in filter atoms.
  const std::vector<Atom>& builtin_body() const { return builtin_body_; }

  /// \brief |body(φ)| as used in the Lemma 3.1 bound: the number of
  /// non-built-in body atoms (built-ins contribute no facts to a witness).
  size_t RelationalBodySize() const { return relational_body_.size(); }

  /// \brief True iff this is an identity view over a single relation:
  /// body is one relational atom whose distinct-variable list equals the
  /// head's term list, with no built-ins.
  bool IsIdentity() const;

  /// All variables occurring in the query.
  std::set<std::string> Variables() const;

  /// Adds the body relations (name, arity) to `schema`.
  Status InferSchema(Schema* schema) const;

  /// \brief φ(D): evaluates the view over a database, returning the set of
  /// head tuples.
  ///
  /// Runs the memoized compiled slot-based join plan with lazy hash
  /// indexes (see query_plan.h).
  Result<Relation> Evaluate(const Database& db) const;

  /// \brief Enumerates every valuation of the body variables that embeds
  /// the body into `db` and satisfies all built-ins, extending the partial
  /// valuation `initial`. `fn` returns false to stop; the final return is
  /// false iff stopped early.
  ///
  /// The enumeration *order* is unspecified: the compiled plan reorders
  /// the join by which variables `initial` binds. It is deterministic for
  /// fixed inputs.
  Result<bool> ForEachValuation(
      const Database& db, const Valuation& initial,
      const std::function<bool(const Valuation&)>& fn) const;

  /// \brief Valuations θ witnessing `head_tuple` ∈ φ(D):
  /// head(φ)θ = head_tuple and body(φ)θ ⊆ D (built-ins satisfied).
  /// Sorted: the canonical witness order, independent of the join order.
  ///
  /// Used by the Lemma 3.1 construction and the template builder.
  Result<std::vector<Valuation>> WitnessValuations(
      const Database& db, const Tuple& head_tuple) const;

  /// \brief Unifies the head with a ground tuple, returning the induced
  /// partial valuation, or nothing when unification fails (a head constant
  /// mismatches, or a repeated head variable gets two values).
  Result<std::optional<Valuation>> UnifyHead(const Tuple& head_tuple) const;

  /// "V(x, y) <- R(x, z), S(z, y), After(x, 1900)".
  std::string ToString() const;

  bool operator==(const ConjunctiveQuery& o) const {
    return head_ == o.head_ && body_ == o.body_;
  }

 private:
  ConjunctiveQuery(Atom head, std::vector<Atom> body);

  Atom head_;
  std::vector<Atom> body_;
  std::vector<Atom> relational_body_;
  std::vector<Atom> builtin_body_;
};

}  // namespace psc

#endif  // PSC_RELATIONAL_CONJUNCTIVE_QUERY_H_
