#include "psc/algebra/expression.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <utility>
#include <variant>

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

using Derivation = Lineage::Derivation;
using Derivations = std::vector<Derivation>;

/// Sorts a derivation list and drops repeats.
void Canonicalize(Derivations* derivations) {
  std::sort(derivations->begin(), derivations->end());
  derivations->erase(std::unique(derivations->begin(), derivations->end()),
                     derivations->end());
}

/// Appends to `out` every union of one derivation from each side.
void JoinDerivations(const Derivations& left, const Derivations& right,
                     Derivations* out) {
  for (const Derivation& l : left) {
    for (const Derivation& r : right) {
      Derivation both;
      both.reserve(l.size() + r.size());
      std::set_union(l.begin(), l.end(), r.begin(), r.end(),
                     std::back_inserter(both));
      out->push_back(std::move(both));
    }
  }
}

/// The columns (left, right − left_arity) the first of `conditions`
/// equates across a product of the given arities, if it does.
std::optional<std::pair<size_t, size_t>> EquatedColumns(
    const std::vector<Condition>& conditions, size_t left_arity,
    size_t right_arity) {
  if (conditions.empty() || conditions[0].op != "Eq" ||
      !std::holds_alternative<size_t>(conditions[0].rhs)) {
    return std::nullopt;
  }
  const size_t a = conditions[0].column;
  const size_t b = std::get<size_t>(conditions[0].rhs);
  const size_t left = std::min(a, b);
  const size_t right = std::max(a, b);
  if (left >= left_arity || right < left_arity ||
      right >= left_arity + right_arity) {
    return std::nullopt;
  }
  return std::make_pair(left, right - left_arity);
}

}  // namespace

AlgebraExprPtr AlgebraExpr::Base(std::string name, size_t arity) {
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kBase;
  expr->base_name_ = std::move(name);
  expr->output_arity_ = arity;
  return AlgebraExprPtr(expr);
}

AlgebraExprPtr AlgebraExpr::Project(AlgebraExprPtr child,
                                    std::vector<size_t> columns) {
  PSC_CHECK(child != nullptr);
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kProject;
  expr->output_arity_ = columns.size();
  expr->columns_ = std::move(columns);
  expr->left_ = std::move(child);
  return AlgebraExprPtr(expr);
}

AlgebraExprPtr AlgebraExpr::Select(AlgebraExprPtr child,
                                   std::vector<Condition> conditions) {
  PSC_CHECK(child != nullptr);
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kSelect;
  expr->output_arity_ = child->OutputArity();
  expr->conditions_ = std::move(conditions);
  expr->left_ = std::move(child);
  return AlgebraExprPtr(expr);
}

AlgebraExprPtr AlgebraExpr::Product(AlgebraExprPtr left,
                                    AlgebraExprPtr right) {
  PSC_CHECK(left != nullptr && right != nullptr);
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kProduct;
  expr->output_arity_ = left->OutputArity() + right->OutputArity();
  expr->left_ = std::move(left);
  expr->right_ = std::move(right);
  return AlgebraExprPtr(expr);
}

AlgebraExprPtr AlgebraExpr::Join(
    AlgebraExprPtr left, AlgebraExprPtr right,
    std::vector<std::pair<size_t, size_t>> join_columns) {
  PSC_CHECK(left != nullptr && right != nullptr);
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kJoin;
  expr->output_arity_ =
      left->OutputArity() + right->OutputArity() - join_columns.size();
  expr->join_columns_ = std::move(join_columns);
  expr->left_ = std::move(left);
  expr->right_ = std::move(right);
  return AlgebraExprPtr(expr);
}

AlgebraExprPtr AlgebraExpr::Union(AlgebraExprPtr left, AlgebraExprPtr right) {
  PSC_CHECK(left != nullptr && right != nullptr);
  PSC_CHECK_MSG(left->OutputArity() == right->OutputArity(),
                "union of mismatched arities");
  auto* expr = new AlgebraExpr();
  expr->kind_ = Kind::kUnion;
  expr->output_arity_ = left->OutputArity();
  expr->left_ = std::move(left);
  expr->right_ = std::move(right);
  return AlgebraExprPtr(expr);
}

std::set<std::string> AlgebraExpr::BaseRelations() const {
  std::set<std::string> names;
  if (kind_ == Kind::kBase) {
    names.insert(base_name_);
    return names;
  }
  if (left_ != nullptr) {
    for (const std::string& name : left_->BaseRelations()) names.insert(name);
  }
  if (right_ != nullptr) {
    for (const std::string& name : right_->BaseRelations()) {
      names.insert(name);
    }
  }
  return names;
}

Result<ProbRelation> AlgebraExpr::EvalConfidence(
    const std::map<std::string, ProbRelation>& base) const {
  switch (kind_) {
    case Kind::kBase: {
      auto it = base.find(base_name_);
      if (it == base.end()) {
        return Status::NotFound(
            StrCat("no confidence relation for base '", base_name_, "'"));
      }
      if (it->second.arity() != output_arity_) {
        return Status::InvalidArgument(
            StrCat("base '", base_name_, "' has arity ", it->second.arity(),
                   ", plan expects ", output_arity_));
      }
      return it->second;
    }
    case Kind::kProject: {
      PSC_ASSIGN_OR_RETURN(const ProbRelation child,
                           left_->EvalConfidence(base));
      return psc::Project(child, columns_);
    }
    case Kind::kSelect: {
      PSC_ASSIGN_OR_RETURN(const ProbRelation child,
                           left_->EvalConfidence(base));
      return psc::Select(child, conditions_);
    }
    case Kind::kProduct: {
      PSC_ASSIGN_OR_RETURN(const ProbRelation lhs,
                           left_->EvalConfidence(base));
      PSC_ASSIGN_OR_RETURN(const ProbRelation rhs,
                           right_->EvalConfidence(base));
      return psc::CrossProduct(lhs, rhs);
    }
    case Kind::kJoin: {
      PSC_ASSIGN_OR_RETURN(const ProbRelation lhs,
                           left_->EvalConfidence(base));
      PSC_ASSIGN_OR_RETURN(const ProbRelation rhs,
                           right_->EvalConfidence(base));
      return psc::EquiJoin(lhs, rhs, join_columns_);
    }
    case Kind::kUnion: {
      PSC_ASSIGN_OR_RETURN(const ProbRelation lhs,
                           left_->EvalConfidence(base));
      PSC_ASSIGN_OR_RETURN(const ProbRelation rhs,
                           right_->EvalConfidence(base));
      return psc::Union(lhs, rhs);
    }
  }
  return Status::Internal("unreachable algebra kind");
}

Result<Relation> AlgebraExpr::EvalInWorld(const Database& db) const {
  switch (kind_) {
    case Kind::kBase:
      return db.GetRelation(base_name_);
    case Kind::kProject: {
      PSC_ASSIGN_OR_RETURN(const Relation child, left_->EvalInWorld(db));
      return ProjectRelation(child, left_->OutputArity(), columns_);
    }
    case Kind::kSelect: {
      PSC_ASSIGN_OR_RETURN(const Relation child, left_->EvalInWorld(db));
      return SelectRelation(child, conditions_);
    }
    case Kind::kProduct: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs, left_->EvalInWorld(db));
      PSC_ASSIGN_OR_RETURN(const Relation rhs, right_->EvalInWorld(db));
      return CrossProductRelation(lhs, rhs);
    }
    case Kind::kJoin: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs, left_->EvalInWorld(db));
      PSC_ASSIGN_OR_RETURN(const Relation rhs, right_->EvalInWorld(db));
      return EquiJoinRelation(lhs, left_->OutputArity(), rhs,
                              right_->OutputArity(), join_columns_);
    }
    case Kind::kUnion: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs, left_->EvalInWorld(db));
      PSC_ASSIGN_OR_RETURN(const Relation rhs, right_->EvalInWorld(db));
      return UnionRelation(lhs, rhs);
    }
  }
  return Status::Internal("unreachable algebra kind");
}

void Lineage::DerivationTable::Add(const std::vector<Derivation>& derivations) {
  for (const Derivation& derivation : derivations) {
    ids_.insert(ids_.end(), derivation.begin(), derivation.end());
    derivation_begin_.push_back(static_cast<uint32_t>(ids_.size()));
  }
  item_begin_.push_back(static_cast<uint32_t>(derivation_begin_.size() - 1));
}

bool Lineage::DerivationTable::Holds(size_t i, const FactBitset& world) const {
  for (uint32_t d = item_begin_[i]; d < item_begin_[i + 1]; ++d) {
    uint32_t k = derivation_begin_[d];
    const uint32_t end = derivation_begin_[d + 1];
    while (k < end && world.Test(ids_[k])) ++k;
    if (k == end) return true;
  }
  return false;
}

std::optional<uint32_t> Lineage::DerivationTable::SingleFact(
    size_t i) const {
  const uint32_t d = item_begin_[i];
  if (item_begin_[i + 1] != d + 1 ||
      derivation_begin_[d + 1] != derivation_begin_[d] + 1) {
    return std::nullopt;
  }
  return ids_[derivation_begin_[d]];
}

std::optional<std::vector<uint32_t>> Lineage::SingleFacts() const {
  if (!errors_.empty()) return std::nullopt;
  std::vector<uint32_t> facts;
  facts.reserve(tuples_.size());
  for (size_t i = 0; i < tuples_.size(); ++i) {
    const std::optional<uint32_t> fact = answers_.SingleFact(i);
    if (!fact.has_value()) return std::nullopt;
    facts.push_back(*fact);
  }
  return facts;
}

Status Lineage::ErrorIn(const FactBitset& world) const {
  for (size_t e = 0; e < errors_.size(); ++e) {
    if (error_derivations_.Holds(e, world)) return errors_[e];
  }
  return Status::OK();
}

Result<Lineage> AlgebraExpr::EvalLineage(
    const std::vector<Fact>& universe) const {
  PSC_OBS_SPAN("algebra.lineage");
  std::map<std::string, LineageRelation> base;
  for (size_t id = 0; id < universe.size(); ++id) {
    base[universe[id].relation()][universe[id].tuple()].push_back(
        Derivation{static_cast<uint32_t>(id)});
  }
  for (auto& [name, relation] : base) {
    for (auto& [tuple, derivations] : relation) Canonicalize(&derivations);
  }
  Lineage lineage;
  lineage.universe_size_ = universe.size();
  lineage.arity_ = output_arity_;
  PSC_ASSIGN_OR_RETURN(const LineageView view, LineageOf(base, &lineage));
  const LineageRelation& answers = view.get();
  lineage.tuples_.reserve(answers.size());
  for (const auto& [tuple, derivations] : answers) {
    lineage.tuples_.push_back(tuple);
    lineage.answers_.Add(derivations);
  }
  return lineage;
}

bool AlgebraExpr::IsIdentityProjection() const {
  if (kind_ != Kind::kProject ||
      columns_.size() != left_->OutputArity()) {
    return false;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] != i) return false;
  }
  return true;
}

Result<AlgebraExpr::LineageView> AlgebraExpr::LineageOf(
    const std::map<std::string, LineageRelation>& base,
    Lineage* lineage) const {
  // Mirrors EvalInWorld operator by operator. A tuple on which an operator
  // fails is recorded as an error with its derivations and dropped: every
  // world holding one of them fails there, before any consumer runs.
  const auto fail = [&](Status status, const Derivations& derivations) {
    lineage->errors_.push_back(std::move(status));
    lineage->error_derivations_.Add(derivations);
  };
  const auto select = [&](const LineageRelation& input,
                          const std::vector<Condition>& conditions) {
    LineageRelation output;
    for (const auto& [tuple, derivations] : input) {
      const Result<bool> keep = EvalConditions(tuple, conditions);
      if (!keep.ok()) {
        fail(keep.status(), derivations);
      } else if (*keep) {
        output.emplace_hint(output.end(), tuple, derivations);
      }
    }
    return output;
  };
  const auto project = [&](const LineageRelation& input, size_t arity,
                           const std::vector<size_t>& columns) {
    LineageRelation output;
    for (const auto& [tuple, derivations] : input) {
      Result<Tuple> projected = ProjectRelationTuple(tuple, arity, columns);
      if (!projected.ok()) {
        fail(projected.status(), derivations);
        continue;
      }
      Derivations& merged = output[std::move(projected).ValueOrDie()];
      merged.insert(merged.end(), derivations.begin(), derivations.end());
    }
    for (auto& [tuple, derivations] : output) Canonicalize(&derivations);
    return output;
  };
  // σ_conditions(lhs × rhs) without building the product. Pairs come in
  // the product's Relation order (the tuples of each side share one
  // arity), so the selection meets its errors in EvalInWorld's order.
  // When the first condition equates a left and a right column, each left
  // tuple is paired only with the right tuples that agree with it there:
  // every other pair fails that condition before a later one can err.
  const auto product = [&](const LineageRelation& lhs, size_t left_arity,
                           const LineageRelation& rhs, size_t right_arity,
                           const std::vector<Condition>& conditions) {
    LineageRelation output;
    const auto pair = [&](const LineageRelation::value_type& left,
                          const LineageRelation::value_type& right) {
      Tuple combined = left.first;
      combined.insert(combined.end(), right.first.begin(), right.first.end());
      const Result<bool> keep = EvalConditions(combined, conditions);
      if (keep.ok() && !*keep) return;
      Derivations derivations;
      JoinDerivations(left.second, right.second, &derivations);
      Canonicalize(&derivations);
      if (!keep.ok()) {
        fail(keep.status(), derivations);
        return;
      }
      Derivations& slot =
          output.try_emplace(output.end(), std::move(combined))->second;
      if (slot.empty()) {
        slot = std::move(derivations);
      } else {
        // Two pairs give one tuple only if a side mixes arities.
        slot.insert(slot.end(), derivations.begin(), derivations.end());
        Canonicalize(&slot);
      }
    };
    const std::optional<std::pair<size_t, size_t>> key =
        EquatedColumns(conditions, left_arity, right_arity);
    const auto width = [](const LineageRelation& relation, size_t arity) {
      return std::all_of(relation.begin(), relation.end(),
                         [&](const auto& entry) {
                           return entry.first.size() == arity;
                         });
    };
    if (!key.has_value() || !width(lhs, left_arity) ||
        !width(rhs, right_arity)) {
      for (const auto& left : lhs) {
        for (const auto& right : rhs) pair(left, right);
      }
      return output;
    }
    // Right entries by their value in the equated column, in rhs order.
    std::map<Value, std::vector<const LineageRelation::value_type*>> index;
    for (const auto& right : rhs) {
      index[right.first[key->second]].push_back(&right);
    }
    for (const auto& left : lhs) {
      const auto matches = index.find(left.first[key->first]);
      if (matches == index.end()) continue;
      for (const auto* right : matches->second) pair(left, *right);
    }
    return output;
  };
  const auto children = [&](const AlgebraExpr& node)
      -> Result<std::pair<LineageView, LineageView>> {
    PSC_ASSIGN_OR_RETURN(LineageView lhs,
                         node.left_->LineageOf(base, lineage));
    PSC_ASSIGN_OR_RETURN(LineageView rhs,
                         node.right_->LineageOf(base, lineage));
    return std::make_pair(std::move(lhs), std::move(rhs));
  };

  LineageView output;
  switch (kind_) {
    case Kind::kBase: {
      const auto it = base.find(base_name_);
      if (it != base.end()) output.borrowed = &it->second;
      return output;
    }
    case Kind::kProject: {
      PSC_ASSIGN_OR_RETURN(LineageView child,
                           left_->LineageOf(base, lineage));
      const size_t arity = left_->OutputArity();
      // π onto every column in order passes its child on, unless a tuple
      // of another arity would fail the projection.
      const bool identity =
          IsIdentityProjection() &&
          std::all_of(child.get().begin(), child.get().end(),
                      [&](const auto& entry) {
                        return entry.first.size() == arity;
                      });
      if (identity) {
        output = std::move(child);
      } else {
        output.owned = project(child.get(), arity, columns_);
      }
      break;
    }
    case Kind::kSelect: {
      if (left_->kind_ == Kind::kProduct) {
        PSC_ASSIGN_OR_RETURN(const auto sides, children(*left_));
        output.owned = product(sides.first.get(), left_->left_->OutputArity(),
                               sides.second.get(),
                               left_->right_->OutputArity(), conditions_);
        break;
      }
      PSC_ASSIGN_OR_RETURN(const LineageView child,
                           left_->LineageOf(base, lineage));
      output.owned = select(child.get(), conditions_);
      break;
    }
    case Kind::kProduct: {
      PSC_ASSIGN_OR_RETURN(const auto sides, children(*this));
      output.owned = product(sides.first.get(), left_->OutputArity(),
                             sides.second.get(), right_->OutputArity(), {});
      break;
    }
    case Kind::kJoin: {
      // EquiJoinRelation: σ over the product, then π.
      PSC_ASSIGN_OR_RETURN(const auto sides, children(*this));
      const size_t left_arity = left_->OutputArity();
      const size_t right_arity = right_->OutputArity();
      output.owned = project(
          product(sides.first.get(), left_arity, sides.second.get(),
                  right_arity, EquiJoinConditions(left_arity, join_columns_)),
          left_arity + right_arity,
          EquiJoinColumns(left_arity, right_arity, join_columns_));
      break;
    }
    case Kind::kUnion: {
      PSC_ASSIGN_OR_RETURN(auto sides, children(*this));
      output.owned = std::move(sides.first).Take();
      for (const auto& [tuple, derivations] : sides.second.get()) {
        Derivations& pooled = output.owned[tuple];
        pooled.insert(pooled.end(), derivations.begin(), derivations.end());
        Canonicalize(&pooled);
      }
      break;
    }
  }
  PSC_OBS_COUNTER_ADD("algebra.tuples_produced", output.get().size());
  return output;
}

Result<Relation> AlgebraExpr::EvalCertainWithNulls(
    const Database& naive_table, const NullPredicate& is_null) const {
  switch (kind_) {
    case Kind::kBase:
      return naive_table.GetRelation(base_name_);
    case Kind::kProject: {
      PSC_ASSIGN_OR_RETURN(const Relation child,
                           left_->EvalCertainWithNulls(naive_table, is_null));
      return ProjectRelation(child, left_->OutputArity(), columns_);
    }
    case Kind::kSelect: {
      PSC_ASSIGN_OR_RETURN(const Relation child,
                           left_->EvalCertainWithNulls(naive_table, is_null));
      return SelectRelationCertain(child, conditions_, is_null);
    }
    case Kind::kProduct: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs,
                           left_->EvalCertainWithNulls(naive_table, is_null));
      PSC_ASSIGN_OR_RETURN(const Relation rhs,
                           right_->EvalCertainWithNulls(naive_table, is_null));
      return CrossProductRelation(lhs, rhs);
    }
    case Kind::kJoin: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs,
                           left_->EvalCertainWithNulls(naive_table, is_null));
      PSC_ASSIGN_OR_RETURN(const Relation rhs,
                           right_->EvalCertainWithNulls(naive_table, is_null));
      return EquiJoinRelationCertain(lhs, left_->OutputArity(), rhs,
                                     right_->OutputArity(), join_columns_,
                                     is_null);
    }
    case Kind::kUnion: {
      PSC_ASSIGN_OR_RETURN(const Relation lhs,
                           left_->EvalCertainWithNulls(naive_table, is_null));
      PSC_ASSIGN_OR_RETURN(const Relation rhs,
                           right_->EvalCertainWithNulls(naive_table, is_null));
      return UnionRelation(lhs, rhs);
    }
  }
  return Status::Internal("unreachable algebra kind");
}

std::string AlgebraExpr::ToString() const {
  switch (kind_) {
    case Kind::kBase:
      return base_name_;
    case Kind::kProject: {
      std::vector<std::string> parts;
      parts.reserve(columns_.size());
      for (const size_t column : columns_) {
        parts.push_back(std::to_string(column));
      }
      return StrCat("π{", ::psc::Join(parts, ","), "}(", left_->ToString(), ")");
    }
    case Kind::kSelect: {
      std::vector<std::string> parts;
      parts.reserve(conditions_.size());
      for (const Condition& condition : conditions_) {
        parts.push_back(condition.ToString());
      }
      return StrCat("σ{", ::psc::Join(parts, " ∧ "), "}(", left_->ToString(), ")");
    }
    case Kind::kProduct:
      return StrCat("(", left_->ToString(), " × ", right_->ToString(), ")");
    case Kind::kJoin: {
      std::vector<std::string> parts;
      parts.reserve(join_columns_.size());
      for (const auto& [l, r] : join_columns_) {
        parts.push_back(StrCat(l, "=", r));
      }
      return StrCat("(", left_->ToString(), " ⋈{", ::psc::Join(parts, ","), "} ",
                    right_->ToString(), ")");
    }
    case Kind::kUnion:
      return StrCat("(", left_->ToString(), " ∪ ", right_->ToString(), ")");
  }
  return "?";
}

}  // namespace psc
