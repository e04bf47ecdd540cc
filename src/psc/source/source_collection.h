#ifndef PSC_SOURCE_SOURCE_COLLECTION_H_
#define PSC_SOURCE_SOURCE_COLLECTION_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "psc/relational/schema.h"
#include "psc/source/source_descriptor.h"
#include "psc/util/result.h"

namespace psc {

/// \brief A batched mutation of a `SourceCollection`: per source name, the
/// extension tuples to insert and retract. Mirrors `DatabaseDelta` one
/// level up — sources drift (the paper's §6 caches/mirrors), their view
/// definitions and bounds do not.
struct CollectionDelta {
  struct SourceDelta {
    Relation inserts;
    Relation retracts;
    bool empty() const { return inserts.empty() && retracts.empty(); }
  };

  std::map<std::string, SourceDelta> sources;

  void Insert(const std::string& source, Tuple tuple) {
    sources[source].inserts.insert(std::move(tuple));
  }
  void Retract(const std::string& source, Tuple tuple) {
    sources[source].retracts.insert(std::move(tuple));
  }
  bool empty() const;
  /// Total number of tuple operations listed (inserts + retracts).
  size_t size() const;
};

/// \brief Change summary returned by `SourceCollection::ApplyDelta`,
/// reusing the per-target `RelationChange` counters from database.h.
struct CollectionDeltaSummary {
  std::map<std::string, RelationChange> sources;
  uint64_t inserted = 0;
  uint64_t retracted = 0;
  uint64_t noops = 0;

  bool changed() const { return inserted + retracted > 0; }
  /// Names of sources with at least one effective change, sorted.
  std::vector<std::string> DirtySources() const;
  std::string ToString() const;
};

/// \brief A source collection S = {S₁,…,Sₙ}, the central object of the
/// paper: it induces the set of possible worlds
/// poss(S) = { D over sch(S) : c_D(vᵢ) ≥ cᵢ ∧ s_D(vᵢ) ≥ sᵢ for all i }.
class SourceCollection {
 public:
  SourceCollection() = default;

  /// \brief Builds a collection; source names must be unique and nonempty.
  static Result<SourceCollection> Create(
      std::vector<SourceDescriptor> sources);

  const std::vector<SourceDescriptor>& sources() const { return sources_; }
  size_t size() const { return sources_.size(); }
  const SourceDescriptor& source(size_t i) const { return sources_[i]; }

  /// Source index by name, or NotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// \brief sch(S): the global relations mentioned by the views.
  const Schema& schema() const { return schema_; }

  /// \brief D ∈ poss(S)? Checks every source's bounds against `db`.
  Result<bool> IsPossibleWorld(const Database& db) const;

  /// Σᵢ |vᵢ| — total extension size (the input size for Theorem 3.2).
  size_t TotalExtensionSize() const;

  /// \brief The Lemma 3.1 witness-size bound:
  /// maxᵢ |body(φᵢ)| · Σᵢ |vᵢ|, counting relational body atoms.
  size_t WitnessSizeBound() const;

  /// \brief True iff every view is the identity over one common relation —
  /// the Section 5.1 special case. `relation` (optional out) receives the
  /// common relation name.
  bool AllIdentityViews(std::string* relation = nullptr) const;

  /// \brief All constants mentioned in view extensions and view definitions,
  /// sorted and deduplicated — the seed for canonical domains.
  std::vector<Value> MentionedConstants() const;

  /// Multi-line rendering of every descriptor.
  std::string ToString() const;

  /// \brief Applies a batched extension delta across any number of sources.
  ///
  /// Validation is all-or-nothing: unknown source names and arity-mismatched
  /// insert tuples fail the whole call before any source is touched. Each
  /// source with an effective change advances its generation; no-op deltas
  /// leave all generations untouched.
  Result<CollectionDeltaSummary> ApplyDelta(const CollectionDelta& delta);

  /// \brief Collection-wide mutation counter: advanced once per source with
  /// an effective change, never by no-ops.
  uint64_t generation() const { return generation_; }

  /// \brief Mutation counter of source `i`: the value of `generation()`
  /// when its extension last changed (0 if never). Delta-aware caches key
  /// their entries on snapshots of these, so mutating one source leaves
  /// results that never read it valid.
  uint64_t source_generation(size_t i) const {
    return i < source_generations_.size() ? source_generations_[i] : 0;
  }

 private:
  explicit SourceCollection(std::vector<SourceDescriptor> sources,
                            Schema schema)
      : sources_(std::move(sources)), schema_(std::move(schema)) {}

  std::vector<SourceDescriptor> sources_;
  Schema schema_;
  uint64_t generation_ = 0;
  /// Lazily sized to sources_.size() on first effective delta.
  std::vector<uint64_t> source_generations_;
};

}  // namespace psc

#endif  // PSC_SOURCE_SOURCE_COLLECTION_H_
