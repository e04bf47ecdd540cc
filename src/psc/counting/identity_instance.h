#ifndef PSC_COUNTING_IDENTITY_INSTANCE_H_
#define PSC_COUNTING_IDENTITY_INSTANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psc/source/source_collection.h"
#include "psc/util/rational.h"
#include "psc/util/result.h"

namespace psc {

/// \brief A compiled instance of the Section 5.1 special case: every view is
/// the identity over one global relation R and the domain is finite.
///
/// A global database is then just a subset D of a finite *fact universe*
/// (all tuples over R with constants in dom, in the paper's enumeration
/// t₁,…,t_N), and D ∈ poss(S) iff for every source i
///
///   |D ∩ vᵢ| ≥ ⌈sᵢ·|vᵢ|⌉      (soundness)
///   |D ∩ vᵢ| ≥ cᵢ·|D|          (completeness; φᵢ(D) = D for identities)
///
/// The key structural observation (used by SignatureCounter): two universe
/// tuples belong to exactly the same extensions — have the same *signature*
/// bitmask over the sources — are exchangeable: every constraint depends
/// only on *how many* tuples are picked from each signature group, not on
/// which ones. Grouping reduces the 2^N search space to count vectors.
class IdentityInstance {
 public:
  /// Per-source constraint data, precomputed with exact arithmetic.
  struct SourceConstraint {
    std::string name;
    int64_t extension_size = 0;  ///< kᵢ = |vᵢ|
    int64_t min_sound = 0;       ///< tᵢ ≥ ⌈sᵢ·kᵢ⌉
    Rational completeness;       ///< cᵢ
    Rational soundness;          ///< sᵢ
  };

  /// A signature group: the universe tuples contained in exactly the
  /// sources set in `signature`.
  struct Group {
    uint64_t signature = 0;       ///< bit i set ⟺ member of source i's vᵢ
    int64_t size = 0;             ///< n_g
    std::vector<size_t> members;  ///< indices into universe()
  };

  /// Empty, invalid instance; use a factory.
  IdentityInstance() = default;

  /// Most facts `Create` puts in a universe: the instance holds every
  /// universe tuple and its group index in memory, and answering by
  /// lineage numbers the facts with 32-bit ids.
  static constexpr size_t kMaxUniverseFacts = size_t{1} << 22;

  /// \brief Compiles `collection` over the full universe dom^arity.
  ///
  /// `domain` must contain every constant mentioned in the extensions.
  /// Fails if a view is not an identity, sources > 63, or the universe
  /// exceeds `kMaxUniverseFacts`.
  static Result<IdentityInstance> Create(const SourceCollection& collection,
                                         const std::vector<Value>& domain);

  /// \brief Compiles over the universe ⋃ᵢ vᵢ only.
  ///
  /// Sufficient for deciding consistency: facts outside every extension
  /// can only lower each completeness ratio and never help soundness, so
  /// poss(S) ≠ ∅ iff a witness exists inside ⋃ᵢ vᵢ.
  ///
  /// The universe lists v₀ in order, then the tuples v₁ adds, and so on
  /// (first-seen order). One merge of the sorted extensions yields every
  /// distinct tuple with its signature and the first source holding it;
  /// the universe is that list stably sorted by first source.
  static Result<IdentityInstance> CreateOverExtensions(
      const SourceCollection& collection);

  /// \brief Compiles over an explicit universe (must cover every vᵢ).
  /// Repeated tuples keep their first position.
  static Result<IdentityInstance> CreateWithUniverse(
      const SourceCollection& collection, std::vector<Tuple> universe);

  /// The common global relation name R.
  const std::string& relation() const { return relation_; }
  size_t arity() const { return arity_; }

  /// The fact universe t₁,…,t_N (deterministic order, no duplicates).
  const std::vector<Tuple>& universe() const { return universe_; }

  /// Signature groups, in increasing signature order. Every universe tuple
  /// belongs to exactly one group; the signature-0 group (if present) holds
  /// the tuples outside every extension.
  const std::vector<Group>& groups() const { return groups_; }

  const std::vector<SourceConstraint>& constraints() const {
    return constraints_;
  }
  size_t num_sources() const { return constraints_.size(); }

  /// Group index of a universe tuple; NotFound for tuples outside.
  Result<size_t> GroupIndexOf(const Tuple& tuple) const;

  /// Group index of `universe()[index]`.
  size_t GroupIndexAt(size_t index) const { return group_of_[index]; }

  /// \brief The world made of the universe facts at `members` (indices,
  /// no repeats, any order), as a database over the relation. The facts
  /// go in in tuple order, read off the sorted positions: one set node per
  /// fact and no search.
  Database World(const std::vector<size_t>& members) const&;
  /// As above, moving the tuples out of this instance's universe.
  Database World(const std::vector<size_t>& members) &&;

  /// \brief Checks a per-group count vector against every source constraint
  /// (the Γ system evaluated on the group abstraction). `counts[g]` is the
  /// number of tuples picked from group g; requires 0 ≤ counts[g] ≤ n_g.
  bool CheckCounts(const std::vector<int64_t>& counts) const;

 private:
  /// The relation, arity and constraints; no universe yet.
  static Result<IdentityInstance> Begin(const SourceCollection& collection);

  /// Groups the universe by `signatures[index]`, given `sorted_`.
  void BuildGroups(const std::vector<uint64_t>& signatures);

  std::string relation_;
  size_t arity_ = 0;
  std::vector<Tuple> universe_;
  std::vector<Group> groups_;
  std::vector<SourceConstraint> constraints_;
  /// group_of_[index]: the group of universe_[index].
  std::vector<size_t> group_of_;
  /// Universe positions in increasing tuple order.
  std::vector<size_t> sorted_;
};

}  // namespace psc

#endif  // PSC_COUNTING_IDENTITY_INSTANCE_H_
