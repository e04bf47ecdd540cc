#ifndef PSC_ALGEBRA_OPERATORS_H_
#define PSC_ALGEBRA_OPERATORS_H_

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "psc/algebra/prob_relation.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc {

/// \brief One selection condition: column `op` (constant | column), where
/// `op` is a built-in comparison name ("Eq", "Lt", "After", …).
struct Condition {
  size_t column = 0;
  std::string op = "Eq";
  /// Either a constant or another column index.
  std::variant<Value, size_t> rhs = Value(int64_t{0});

  static Condition WithConstant(size_t column, std::string op, Value value) {
    return Condition{column, std::move(op), std::move(value)};
  }
  static Condition WithColumn(size_t column, std::string op, size_t other) {
    return Condition{column, std::move(op), other};
  }

  /// Evaluates the condition on one tuple.
  Result<bool> Eval(const Tuple& tuple) const;

  std::string ToString() const;
};

/// \name Definition 5.1 operators
///
/// Each operator implements one clause of the paper's compositional
/// confidence semantics:
///   * projection: conf(t) = ⊕ { conf(t′) : π(t′) = t }  (independent-or)
///   * selection:  conf(t) unchanged on surviving tuples
///   * product:    conf(t′×t″) = conf(t′)·conf(t″)
/// @{

/// π_columns — `columns` lists the (0-based) output column order; columns
/// may repeat.
Result<ProbRelation> Project(const ProbRelation& input,
                             const std::vector<size_t>& columns);

/// σ_conditions — conjunction of conditions.
Result<ProbRelation> Select(const ProbRelation& input,
                            const std::vector<Condition>& conditions);

/// Cartesian product.
Result<ProbRelation> CrossProduct(const ProbRelation& left,
                                  const ProbRelation& right);
/// @}

/// \name Derived operators (extensions beyond Definition 5.1)
/// @{

/// Equi-join on column pairs, implemented as σ(×) then projecting away the
/// duplicate right-side join columns. Confidence multiplies (independence).
Result<ProbRelation> EquiJoin(
    const ProbRelation& left, const ProbRelation& right,
    const std::vector<std::pair<size_t, size_t>>& join_columns);

/// Union with ⊕-combination of confidences (same independence reading as
/// projection).
Result<ProbRelation> Union(const ProbRelation& left,
                           const ProbRelation& right);
/// @}

/// \name Deterministic counterparts over plain relations.
///
/// Used to evaluate a query plan inside one concrete possible world when
/// computing exact per-world confidences (experiment E5).
/// @{

/// The conjunction of `conditions` on one tuple: SelectRelation keeps
/// exactly the tuples it holds for, and fails with its first error.
Result<bool> EvalConditions(const Tuple& tuple,
                            const std::vector<Condition>& conditions);
/// One tuple of ProjectRelation, with the same checks and errors.
Result<Tuple> ProjectRelationTuple(const Tuple& tuple, size_t arity,
                                   const std::vector<size_t>& columns);
/// The selection an equi-join applies to left × right (left columns
/// first), and the columns it keeps: every left column and the non-join
/// right columns.
std::vector<Condition> EquiJoinConditions(
    size_t left_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns);
std::vector<size_t> EquiJoinColumns(
    size_t left_arity, size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns);

Result<Relation> ProjectRelation(const Relation& input, size_t arity,
                                 const std::vector<size_t>& columns);
Result<Relation> SelectRelation(const Relation& input,
                                const std::vector<Condition>& conditions);
Relation CrossProductRelation(const Relation& left, const Relation& right);
Result<Relation> EquiJoinRelation(
    const Relation& left, size_t left_arity, const Relation& right,
    size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns);
Relation UnionRelation(const Relation& left, const Relation& right);
/// @}

/// \brief Identifies labeled nulls inside a naive table.
using NullPredicate = std::function<bool(const Value&)>;

/// \brief Certain-semantics condition check over a naive table: true only
/// when the condition holds in *every* instantiation of the nulls.
///
/// Both operands concrete → ordinary evaluation. Any null operand:
/// certainly true only for Eq/Le/Ge on the *same* value (same null label
/// compared with itself); everything else might fail for some
/// instantiation and is rejected.
Result<bool> EvalConditionCertain(const Condition& condition,
                                  const Tuple& tuple,
                                  const NullPredicate& is_null);

/// σ under certain semantics (conjunction of EvalConditionCertain).
Result<Relation> SelectRelationCertain(const Relation& input,
                                       const std::vector<Condition>& conditions,
                                       const NullPredicate& is_null);

/// Equi-join under certain semantics (join equality must certainly hold).
Result<Relation> EquiJoinRelationCertain(
    const Relation& left, size_t left_arity, const Relation& right,
    size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns,
    const NullPredicate& is_null);

}  // namespace psc

#endif  // PSC_ALGEBRA_OPERATORS_H_
