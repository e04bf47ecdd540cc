#ifndef PSC_RELATIONAL_EVAL_INDEX_H_
#define PSC_RELATIONAL_EVAL_INDEX_H_

/// \file
/// Lazy hash indexes for compiled query evaluation, with incremental
/// maintenance under batched mutations.
///
/// A `RelationIndex` buckets the tuples of one relation extension by the
/// values at a fixed set of bound positions, so a join step that arrives
/// with those positions already bound probes one bucket instead of
/// scanning the whole extension. Indexes are built on demand the first
/// time a plan asks for a (relation, arity, position-set) access path and
/// cached on the owning `Database` in an `IndexCache`.
///
/// Invalidation is scoped per relation: every cache entry remembers the
/// *relation generation* it was built (or last patched) at, and a probe
/// presenting a newer generation rebuilds only that entry. Mutations of
/// other relations leave it untouched. Small batched mutations do not
/// invalidate at all — `ApplyRelationDelta` patches the affected buckets
/// in place (O(|delta|·log bucket)) and advances the entry's generation,
/// falling back to a drop-and-rebuild once the batch exceeds a churn
/// threshold (see kIndexChurnRebuildDivisor).
///
/// Buckets hold pointers into the relation's `std::set` nodes. Node
/// addresses are stable under unrelated insert/erase; retracted nodes are
/// unlinked from their buckets *before* the set erases them, and inserted
/// nodes are linked after the set owns them, so the pointers are valid for
/// the index's entire lifetime. Bucket order is the relation's canonical
/// (sorted) iteration order — incremental inserts splice at the sorted
/// position — which keeps probe enumeration deterministic and identical
/// to a fresh rebuild.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "psc/relational/value.h"
#include "psc/sync/mutex.h"

namespace psc {
namespace eval {

/// FNV-style hash over a tuple's values, mixing a kind tag per value so
/// Value(1) and Value("1") land in different buckets more often than not.
struct TupleHash {
  size_t operator()(const Tuple& tuple) const;
};

/// \brief Hash index of one relation extension on one bound-position set.
///
/// `positions` (ascending) are the indexed tuple positions; `buckets` maps
/// each observed sub-tuple at those positions to the matching tuples, in
/// canonical relation order. Only tuples whose size equals `arity` are
/// indexed — the evaluator skips arity-mismatched tuples exactly like its
/// full-scan path.
struct RelationIndex {
  size_t arity = 0;
  std::vector<uint32_t> positions;
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> buckets;

  /// The sub-tuple of `tuple` at `positions` (the bucket key).
  static Tuple KeyFor(const Tuple& tuple, const std::vector<uint32_t>& positions);

  /// Builds the index over `extension` (a canonical std::set<Tuple>).
  static std::shared_ptr<RelationIndex> Build(
      const std::set<Tuple>& extension, size_t arity,
      std::vector<uint32_t> positions);

  /// The bucket for `key`, or nullptr when no tuple matches.
  const std::vector<const Tuple*>* Find(const Tuple& key) const {
    const auto it = buckets.find(key);
    return it == buckets.end() ? nullptr : &it->second;
  }

  /// \brief Splices `node` into its bucket at the canonical (sorted)
  /// position / unlinks it from its bucket. Arity-mismatched tuples are
  /// ignored, mirroring Build.
  void Link(const Tuple* node);
  void Unlink(const Tuple* node);
};

/// \brief A batched mutation drops a cached index for rebuild (instead of
/// patching it) once it touches more than extension-size /
/// kIndexChurnRebuildDivisor tuples: past that point a fresh O(n) build is
/// cheaper and better packed than thousands of bucket splices.
inline constexpr size_t kIndexChurnRebuildDivisor = 4;

/// \brief Per-database store of lazily built `RelationIndex`es with
/// relation-scoped invalidation and in-place delta maintenance.
///
/// Thread-safe: concurrent const evaluations over one database serialize
/// only on the build-or-lookup critical section (a map probe; builds are
/// rare); the returned index is immutable to its holders and probed
/// without the lock. Maintenance (`ApplyRelationDelta`) requires the same
/// external ordering as any database mutation: no concurrent evaluation
/// over the same database (readers-writer locking at the caller, as the
/// delta engine and pscd do).
class IndexCache {
 public:
  IndexCache() = default;
  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// \brief The index of `extension` on (`relation`, `arity`, `positions`),
  /// built now if absent or stale. `relation_generation` is the owning
  /// database's current generation *for this relation*; a mismatch with
  /// the cached entry's generation rebuilds that entry only.
  std::shared_ptr<const RelationIndex> GetOrBuild(
      const std::set<Tuple>& extension, uint64_t relation_generation,
      const std::string& relation, size_t arity,
      const std::vector<uint32_t>& positions);

  /// \brief Incrementally maintains every cached index of `relation` after
  /// a batched mutation that inserted the set nodes in `inserted` and is
  /// about to erase the nodes in `retracted`.
  ///
  /// Preconditions (Database::ApplyDelta's call order guarantees both):
  /// `inserted` pointers are already linked into the relation's set;
  /// `retracted` pointers are still alive and erased only after this call.
  ///
  /// Entries cached at a generation other than `old_generation` were
  /// already stale and are dropped; fresh entries are patched in place and
  /// stamped `new_generation` — unless the batch exceeds the churn
  /// threshold relative to `size_after` (the relation's tuple count once
  /// the retracts land), in which case they are dropped for lazy rebuild.
  void ApplyRelationDelta(const std::string& relation,
                          const std::vector<const Tuple*>& inserted,
                          const std::vector<const Tuple*>& retracted,
                          size_t size_after, uint64_t old_generation,
                          uint64_t new_generation);

  /// Drops every cached index (the pre-delta wholesale invalidation;
  /// kept for tests and as the full-recompute bench baseline).
  void Clear();

  /// Number of live index entries (tests / introspection).
  size_t size() const;

 private:
  struct Key {
    std::string relation;
    size_t arity;
    std::vector<uint32_t> positions;
    bool operator<(const Key& o) const {
      if (relation != o.relation) return relation < o.relation;
      if (arity != o.arity) return arity < o.arity;
      return positions < o.positions;
    }
  };

  /// The generation stamp makes staleness per-entry: an entry survives any
  /// number of mutations to *other* relations. `index` is shared non-const
  /// so in-place patching can reuse the allocation; handed-out references
  /// are const and a patch clones first when anyone still holds one.
  struct Entry {
    uint64_t generation = 0;
    std::shared_ptr<RelationIndex> index;
  };

  mutable sync::Mutex mutex_{"eval.index_cache", sync::kRankEvalIndexCache};
  std::map<Key, Entry> entries_ PSC_GUARDED_BY(mutex_);
};

}  // namespace eval
}  // namespace psc

#endif  // PSC_RELATIONAL_EVAL_INDEX_H_
