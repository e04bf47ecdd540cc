#include "psc/algebra/operators.h"

#include "psc/obs/metrics.h"
#include "psc/relational/builtin.h"
#include "psc/util/string_util.h"

namespace psc {

Result<bool> Condition::Eval(const Tuple& tuple) const {
  if (column >= tuple.size()) {
    return Status::InvalidArgument(
        StrCat("condition column ", column, " out of range for arity ",
               tuple.size()));
  }
  Value rhs_value;
  if (std::holds_alternative<Value>(rhs)) {
    rhs_value = std::get<Value>(rhs);
  } else {
    const size_t other = std::get<size_t>(rhs);
    if (other >= tuple.size()) {
      return Status::InvalidArgument(
          StrCat("condition column ", other, " out of range for arity ",
                 tuple.size()));
    }
    rhs_value = tuple[other];
  }
  return EvalBuiltin(op, {tuple[column], rhs_value});
}

std::string Condition::ToString() const {
  const std::string rhs_text =
      std::holds_alternative<Value>(rhs)
          ? std::get<Value>(rhs).ToString()
          : StrCat("$", std::get<size_t>(rhs));
  return StrCat(op, "($", column, ", ", rhs_text, ")");
}

namespace {

Result<Tuple> ProjectTuple(const Tuple& tuple,
                           const std::vector<size_t>& columns) {
  Tuple out;
  out.reserve(columns.size());
  for (const size_t column : columns) {
    if (column >= tuple.size()) {
      return Status::InvalidArgument(
          StrCat("projection column ", column, " out of range for arity ",
                 tuple.size()));
    }
    out.push_back(tuple[column]);
  }
  return out;
}

}  // namespace

Result<bool> EvalConditions(const Tuple& tuple,
                            const std::vector<Condition>& conditions) {
  for (const Condition& condition : conditions) {
    PSC_ASSIGN_OR_RETURN(const bool holds, condition.Eval(tuple));
    if (!holds) return false;
  }
  return true;
}

Result<Tuple> ProjectRelationTuple(const Tuple& tuple, size_t arity,
                                   const std::vector<size_t>& columns) {
  if (tuple.size() != arity) {
    return Status::InvalidArgument("inconsistent tuple arity in relation");
  }
  return ProjectTuple(tuple, columns);
}

std::vector<Condition> EquiJoinConditions(
    size_t left_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns) {
  std::vector<Condition> conditions;
  conditions.reserve(join_columns.size());
  for (const auto& [left_col, right_col] : join_columns) {
    conditions.push_back(
        Condition::WithColumn(left_col, "Eq", left_arity + right_col));
  }
  return conditions;
}

std::vector<size_t> EquiJoinColumns(
    size_t left_arity, size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns) {
  std::vector<size_t> columns;
  for (size_t i = 0; i < left_arity; ++i) columns.push_back(i);
  for (size_t j = 0; j < right_arity; ++j) {
    bool is_join_column = false;
    for (const auto& [left_col, right_col] : join_columns) {
      if (right_col == j) {
        is_join_column = true;
        break;
      }
    }
    if (!is_join_column) columns.push_back(left_arity + j);
  }
  return columns;
}

Result<ProbRelation> Project(const ProbRelation& input,
                             const std::vector<size_t>& columns) {
  ProbRelation output(columns.size());
  for (const auto& [tuple, confidence] : input.entries()) {
    PSC_ASSIGN_OR_RETURN(Tuple projected, ProjectTuple(tuple, columns));
    PSC_RETURN_NOT_OK(output.Merge(std::move(projected), confidence));
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<ProbRelation> Select(const ProbRelation& input,
                            const std::vector<Condition>& conditions) {
  ProbRelation output(input.arity());
  for (const auto& [tuple, confidence] : input.entries()) {
    PSC_ASSIGN_OR_RETURN(const bool keep, EvalConditions(tuple, conditions));
    if (keep) PSC_RETURN_NOT_OK(output.Insert(tuple, confidence));
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<ProbRelation> CrossProduct(const ProbRelation& left,
                                  const ProbRelation& right) {
  ProbRelation output(left.arity() + right.arity());
  for (const auto& [left_tuple, left_conf] : left.entries()) {
    for (const auto& [right_tuple, right_conf] : right.entries()) {
      Tuple combined = left_tuple;
      combined.insert(combined.end(), right_tuple.begin(), right_tuple.end());
      PSC_RETURN_NOT_OK(output.Insert(std::move(combined),
                                      left_conf * right_conf));
    }
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<ProbRelation> EquiJoin(
    const ProbRelation& left, const ProbRelation& right,
    const std::vector<std::pair<size_t, size_t>>& join_columns) {
  PSC_ASSIGN_OR_RETURN(ProbRelation product, CrossProduct(left, right));
  PSC_ASSIGN_OR_RETURN(
      ProbRelation selected,
      Select(product, EquiJoinConditions(left.arity(), join_columns)));
  return Project(selected, EquiJoinColumns(left.arity(), right.arity(),
                                           join_columns));
}

Result<ProbRelation> Union(const ProbRelation& left,
                           const ProbRelation& right) {
  if (left.arity() != right.arity()) {
    return Status::InvalidArgument(
        StrCat("union of arities ", left.arity(), " and ", right.arity()));
  }
  ProbRelation output(left.arity());
  for (const auto& [tuple, confidence] : left.entries()) {
    PSC_RETURN_NOT_OK(output.Merge(tuple, confidence));
  }
  for (const auto& [tuple, confidence] : right.entries()) {
    PSC_RETURN_NOT_OK(output.Merge(tuple, confidence));
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<Relation> ProjectRelation(const Relation& input, size_t arity,
                                 const std::vector<size_t>& columns) {
  Relation output;
  for (const Tuple& tuple : input) {
    PSC_ASSIGN_OR_RETURN(Tuple projected,
                         ProjectRelationTuple(tuple, arity, columns));
    output.insert(std::move(projected));
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<Relation> SelectRelation(const Relation& input,
                                const std::vector<Condition>& conditions) {
  Relation output;
  for (const Tuple& tuple : input) {
    PSC_ASSIGN_OR_RETURN(const bool keep, EvalConditions(tuple, conditions));
    if (keep) output.insert(tuple);
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Relation CrossProductRelation(const Relation& left, const Relation& right) {
  Relation output;
  for (const Tuple& left_tuple : left) {
    for (const Tuple& right_tuple : right) {
      Tuple combined = left_tuple;
      combined.insert(combined.end(), right_tuple.begin(), right_tuple.end());
      output.insert(std::move(combined));
    }
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<Relation> EquiJoinRelation(
    const Relation& left, size_t left_arity, const Relation& right,
    size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns) {
  Relation product = CrossProductRelation(left, right);
  PSC_ASSIGN_OR_RETURN(
      const Relation selected,
      SelectRelation(product, EquiJoinConditions(left_arity, join_columns)));
  return ProjectRelation(
      selected, left_arity + right_arity,
      EquiJoinColumns(left_arity, right_arity, join_columns));
}

Relation UnionRelation(const Relation& left, const Relation& right) {
  Relation output = left;
  output.insert(right.begin(), right.end());
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.size());
  return output;
}

Result<bool> EvalConditionCertain(const Condition& condition,
                                  const Tuple& tuple,
                                  const NullPredicate& is_null) {
  if (condition.column >= tuple.size()) {
    return Status::InvalidArgument(
        StrCat("condition column ", condition.column,
               " out of range for arity ", tuple.size()));
  }
  const Value& lhs = tuple[condition.column];
  Value rhs;
  if (std::holds_alternative<Value>(condition.rhs)) {
    rhs = std::get<Value>(condition.rhs);
  } else {
    const size_t other = std::get<size_t>(condition.rhs);
    if (other >= tuple.size()) {
      return Status::InvalidArgument(
          StrCat("condition column ", other, " out of range for arity ",
                 tuple.size()));
    }
    rhs = tuple[other];
  }
  if (!is_null(lhs) && !is_null(rhs)) {
    return EvalBuiltin(condition.op, {lhs, rhs});
  }
  // A null stands for an arbitrary constant. The only conditions holding
  // under every instantiation are the reflexive ones on the same value
  // (x = x, x <= x, x >= x for the same null label).
  if (lhs == rhs) {
    return condition.op == "Eq" || condition.op == "Le" ||
           condition.op == "Ge";
  }
  return false;
}

Result<Relation> SelectRelationCertain(const Relation& input,
                                       const std::vector<Condition>& conditions,
                                       const NullPredicate& is_null) {
  Relation output;
  for (const Tuple& tuple : input) {
    bool keep = true;
    for (const Condition& condition : conditions) {
      PSC_ASSIGN_OR_RETURN(const bool holds,
                           EvalConditionCertain(condition, tuple, is_null));
      if (!holds) {
        keep = false;
        break;
      }
    }
    if (keep) output.insert(tuple);
  }
  return output;
}

Result<Relation> EquiJoinRelationCertain(
    const Relation& left, size_t left_arity, const Relation& right,
    size_t right_arity,
    const std::vector<std::pair<size_t, size_t>>& join_columns,
    const NullPredicate& is_null) {
  Relation product = CrossProductRelation(left, right);
  PSC_ASSIGN_OR_RETURN(
      const Relation selected,
      SelectRelationCertain(product,
                            EquiJoinConditions(left_arity, join_columns),
                            is_null));
  return ProjectRelation(
      selected, left_arity + right_arity,
      EquiJoinColumns(left_arity, right_arity, join_columns));
}

}  // namespace psc
