#ifndef PSC_ALGEBRA_EXPRESSION_H_
#define PSC_ALGEBRA_EXPRESSION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "psc/algebra/operators.h"
#include "psc/algebra/prob_relation.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc {

class AlgebraExpr;
using AlgebraExprPtr = std::shared_ptr<const AlgebraExpr>;

/// \brief A world D ⊆ U as one bit per fact id (index into the fact
/// universe U): the world representation lineage is tested against.
class FactBitset {
 public:
  explicit FactBitset(size_t universe_size = 0)
      : words_((universe_size + 63) / 64, 0) {}

  void Set(size_t id) { words_[id >> 6] |= uint64_t{1} << (id & 63); }
  void Reset(size_t id) { words_[id >> 6] &= ~(uint64_t{1} << (id & 63)); }
  bool Test(size_t id) const { return (words_[id >> 6] >> (id & 63)) & 1; }

 private:
  std::vector<uint64_t> words_;
};

/// \brief A plan evaluated once over a fact universe U, keeping how each
/// answer tuple was derived (see AlgebraExpr::EvalLineage). Answers any
/// world D ⊆ U by bit tests.
class Lineage {
 public:
  /// Fact ids (indices into U), ascending, that jointly derive a tuple.
  using Derivation = std::vector<uint32_t>;

  /// |U|.
  size_t universe_size() const { return universe_size_; }
  /// The plan's output arity.
  size_t arity() const { return arity_; }
  /// Q(U), in Relation order.
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Whether tuples()[i] ∈ Q(D): some derivation of it lies inside D.
  bool Contains(size_t i, const FactBitset& world) const {
    return answers_.Holds(i, world);
  }

  /// The error EvalInWorld(D) fails with, or OK. Errors are kept in the
  /// order EvalInWorld meets them; D fails with the first one it holds a
  /// derivation of.
  Status ErrorIn(const FactBitset& world) const;

 private:
  friend class AlgebraExpr;

  /// Derivation lists of numbered items in flat arrays: item i's
  /// derivations are d ∈ [item_begin_[i], item_begin_[i + 1]), and
  /// derivation d's fact ids are ids_[derivation_begin_[d] ...
  /// derivation_begin_[d + 1]).
  class DerivationTable {
   public:
    void Add(const std::vector<Derivation>& derivations);
    bool Holds(size_t i, const FactBitset& world) const;

   private:
    std::vector<uint32_t> item_begin_{0};
    std::vector<uint32_t> derivation_begin_{0};
    std::vector<uint32_t> ids_;
  };

  size_t universe_size_ = 0;
  size_t arity_ = 0;
  std::vector<Tuple> tuples_;
  DerivationTable answers_;
  std::vector<Status> errors_;
  DerivationTable error_derivations_;
};

/// \brief A relational-algebra query plan over global relations.
///
/// Evaluation modes:
///  * `EvalConfidence` — the Definition 5.1 compositional semantics over
///    confidence-annotated base relations (projection ⊕, selection
///    pass-through, product ·, plus the join/union extensions);
///  * `EvalInWorld` — plain set semantics inside one concrete possible
///    world (Theorem 5.1's left-hand side averages it over poss(S));
///  * `EvalLineage` — set semantics over a whole fact universe with the
///    derivations of every tuple, which answers every world inside it at
///    once; exact and Monte-Carlo answering use it.
class AlgebraExpr : public std::enable_shared_from_this<AlgebraExpr> {
 public:
  enum class Kind { kBase, kProject, kSelect, kProduct, kJoin, kUnion };

  /// Leaf: the global relation `name` with the given arity.
  static AlgebraExprPtr Base(std::string name, size_t arity);
  /// π_columns(child); columns may repeat or reorder.
  static AlgebraExprPtr Project(AlgebraExprPtr child,
                                std::vector<size_t> columns);
  /// σ_conditions(child), a conjunction.
  static AlgebraExprPtr Select(AlgebraExprPtr child,
                               std::vector<Condition> conditions);
  /// child_left × child_right.
  static AlgebraExprPtr Product(AlgebraExprPtr left, AlgebraExprPtr right);
  /// Equi-join (extension beyond Definition 5.1).
  static AlgebraExprPtr Join(
      AlgebraExprPtr left, AlgebraExprPtr right,
      std::vector<std::pair<size_t, size_t>> join_columns);
  /// Union (extension beyond Definition 5.1); arities must match.
  static AlgebraExprPtr Union(AlgebraExprPtr left, AlgebraExprPtr right);

  Kind kind() const { return kind_; }
  size_t OutputArity() const { return output_arity_; }
  const std::string& base_name() const { return base_name_; }

  /// Names of all base relations referenced by the plan.
  std::set<std::string> BaseRelations() const;

  /// \brief Definition 5.1 evaluation: `base` maps each base-relation name
  /// to its confidence-annotated extension. Missing names are errors.
  Result<ProbRelation> EvalConfidence(
      const std::map<std::string, ProbRelation>& base) const;

  /// Set-semantics evaluation inside one world (absent relations = empty).
  Result<Relation> EvalInWorld(const Database& db) const;

  /// \brief Evaluates the plan once over the fact universe `universe` and
  /// returns every tuple of Q(U) with its derivations (positive lineage).
  ///
  /// Every operator here is monotone, so for any world D ⊆ U,
  /// Q(D) = {t ∈ Q(U) : some derivation of t lies inside D}. A tuple on
  /// which an operator fails is kept as an error with its derivations,
  /// so the errors of EvalInWorld(D) follow the same rule
  /// (Lineage::ErrorIn). A difference operator would break monotonicity
  /// and need boolean lineage. A selection over a product keeps only the
  /// pairs it selects, so the product is never built; when its first
  /// condition equates a left and a right column, only agreeing pairs are
  /// formed. Plan errors never fail the call.
  Result<Lineage> EvalLineage(const std::vector<Fact>& universe) const;

  /// \brief Certain-semantics evaluation over a *naive table*: a database
  /// whose values satisfying `is_null` are labeled nulls standing for
  /// unknown constants.
  ///
  /// Returns tuples that are in the plan's answer under *every*
  /// instantiation of the nulls (conditions touching nulls must hold
  /// universally; see EvalConditionCertain). Output tuples may still
  /// contain nulls — callers computing certain answers drop those.
  /// Sound for the monotone fragment (π, σ, ×, ⋈, ∪ — everything this
  /// class offers).
  Result<Relation> EvalCertainWithNulls(const Database& naive_table,
                                        const NullPredicate& is_null) const;

  /// "π{0,2}(σ{Eq($1, 3)}(R × S))".
  std::string ToString() const;

 private:
  AlgebraExpr() = default;

  /// EvalLineage's recursion: Q over U as tuple → derivations, adding the
  /// plan errors met to the build's lineage in EvalInWorld order.
  using LineageRelation = std::map<Tuple, std::vector<Lineage::Derivation>>;
  Result<LineageRelation> LineageOf(
      const std::map<std::string, LineageRelation>& base,
      Lineage* lineage) const;

  Kind kind_ = Kind::kBase;
  size_t output_arity_ = 0;
  std::string base_name_;
  std::vector<size_t> columns_;
  std::vector<Condition> conditions_;
  std::vector<std::pair<size_t, size_t>> join_columns_;
  AlgebraExprPtr left_;
  AlgebraExprPtr right_;
};

}  // namespace psc

#endif  // PSC_ALGEBRA_EXPRESSION_H_
