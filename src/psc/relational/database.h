#ifndef PSC_RELATIONAL_DATABASE_H_
#define PSC_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "psc/relational/atom.h"
#include "psc/relational/schema.h"
#include "psc/relational/value.h"
#include "psc/util/result.h"

namespace psc {

namespace eval {
class IndexCache;
}  // namespace eval

/// \brief A relation extension: a canonical (sorted, duplicate-free) set of
/// tuples.
using Relation = std::set<Tuple>;

/// \brief A batched mutation against a `Database`: per relation, a set of
/// tuples to insert and a set to retract.
///
/// Semantics of `Database::ApplyDelta`: a tuple listed in both sets is
/// treated as an insert (the retraction is dropped as a no-op), so a delta
/// is a pure "make these present, make those absent" declaration and the
/// application order inside one call is unobservable.
struct DatabaseDelta {
  std::map<std::string, Relation> inserts;
  std::map<std::string, Relation> retracts;

  void Insert(const std::string& relation, Tuple tuple) {
    inserts[relation].insert(std::move(tuple));
  }
  void Retract(const std::string& relation, Tuple tuple) {
    retracts[relation].insert(std::move(tuple));
  }
  bool empty() const { return inserts.empty() && retracts.empty(); }
  /// Total number of tuple operations listed (inserts + retracts).
  size_t size() const;
};

/// \brief Per-relation outcome of one `Database::ApplyDelta` call.
struct RelationChange {
  /// Tuples actually added (absent before the call).
  uint64_t inserted = 0;
  /// Tuples actually removed (present before the call).
  uint64_t retracted = 0;
  /// Inserts of already-present tuples plus retracts of missing ones;
  /// no-ops never bump generations or touch indexes.
  uint64_t noops = 0;
};

/// \brief Change summary returned by `Database::ApplyDelta`.
struct DeltaSummary {
  std::map<std::string, RelationChange> relations;
  uint64_t inserted = 0;
  uint64_t retracted = 0;
  uint64_t noops = 0;

  bool changed() const { return inserted + retracted > 0; }
  /// Relations with at least one effective change, sorted.
  std::vector<std::string> DirtyRelations() const;
  /// "+3 -1 noop=2 over 2 relation(s)".
  std::string ToString() const;
};

/// \brief A global database D: a finite set of facts, grouped by relation.
///
/// Databases compare structurally, so they can key sets of possible worlds.
///
/// Each database lazily owns an `eval::IndexCache` of hash indexes used by
/// compiled query plans (see query_plan.h). The cache is an evaluation
/// artifact, not state: it is never copied and never participates in
/// comparison. Invalidation is scoped per relation: every mutation stamps
/// the touched relation with a fresh generation, and batched mutations
/// (`ApplyDelta`, and the single-fact paths when a cache exists) patch the
/// cached indexes in place instead of discarding them — see eval_index.h.
class Database {
 public:
  Database() = default;
  ~Database();
  Database(const Database& o);
  Database(Database&& o) noexcept;
  Database& operator=(const Database& o);
  Database& operator=(Database&& o) noexcept;

  /// \brief A database holding exactly `tuples` in `relation`, and no facts
  /// when `tuples` is empty. The set is moved in, not copied.
  static Database OfRelation(const std::string& relation, Relation tuples);

  /// \brief Inserts a fact; returns true if it was not already present.
  /// Inserting a present fact is a no-op: generations and cached indexes
  /// are left untouched.
  bool AddFact(const Fact& fact);
  bool AddFact(const std::string& relation, Tuple tuple);

  /// \brief Removes a fact; returns true if it was present. Removing a
  /// missing fact is a no-op (see AddFact).
  bool RemoveFact(const Fact& fact);

  /// \brief Applies a batched delta: retracts and inserts over any number
  /// of relations in one call, with per-relation generation bumps and
  /// in-place index maintenance (one cache patch per touched relation).
  /// No-op operations are counted in the summary but change nothing.
  DeltaSummary ApplyDelta(const DatabaseDelta& delta);

  bool Contains(const Fact& fact) const;
  bool Contains(const std::string& relation, const Tuple& tuple) const;

  /// \brief The extension D(R); empty for unknown relations.
  const Relation& GetRelation(const std::string& relation) const;

  /// Total number of facts |D|.
  size_t size() const;
  bool empty() const { return size() == 0; }

  /// All facts in deterministic (relation, tuple) order.
  std::vector<Fact> AllFacts() const;

  /// Relation names with at least one tuple, sorted.
  std::vector<std::string> RelationNames() const;

  /// \brief Inserts every fact of `other` (set union). Only relations that
  /// actually gain tuples advance their generation; a subset union is a
  /// complete no-op.
  void UnionWith(const Database& other);

  /// True iff every fact of this database is in `other`.
  bool IsSubsetOf(const Database& other) const;

  bool operator==(const Database& o) const;
  bool operator!=(const Database& o) const { return !(*this == o); }
  /// Lexicographic order on the canonical fact list (for use as a map key).
  bool operator<(const Database& o) const;

  /// Multi-line "R(1, 2)\nS(\"x\")" listing in canonical order.
  std::string ToString() const;

  /// \brief Global mutation counter: advanced by every call that actually
  /// changes the fact set (once per touched relation in a batch). Equal
  /// generations of one database imply equal contents over time.
  uint64_t generation() const { return generation_; }

  /// \brief Mutation counter of one relation: the value of `generation()`
  /// when the relation last changed (0 if never). Compiled-evaluation
  /// indexes are keyed on this, so mutating R never invalidates indexes
  /// over S.
  uint64_t relation_generation(const std::string& relation) const;

  /// \brief Drops every cached index while keeping the data intact. This
  /// is the pre-delta wholesale invalidation behaviour, kept as the
  /// full-recompute baseline for benchmarks and for tests.
  void InvalidateIndexCache() const;

  /// \brief The database's lazy index cache, created on first use.
  /// Thread-safe against concurrent const evaluations; mutating the
  /// database while another thread evaluates over it is a data race on the
  /// relations themselves and is not supported (same as before) — callers
  /// that stream deltas against live readers hold a readers-writer lock
  /// (see psc/delta/incremental.h).
  eval::IndexCache& index_cache() const;

 private:
  /// Stamps `relation` with the next global generation and returns
  /// (old, new) for index maintenance.
  std::pair<uint64_t, uint64_t> BumpRelation(const std::string& relation);

  // Empty relations are never stored, keeping operator== structural.
  std::map<std::string, Relation> relations_;
  uint64_t generation_ = 0;
  /// Present only for relations that have ever changed; absent = 0.
  std::map<std::string, uint64_t> relation_generations_;
  /// Lazily allocated (one CAS on first use) so the many short-lived
  /// databases of world enumeration never pay for it. Reset on copy — the
  /// cache holds pointers into *this* database's set nodes.
  mutable std::atomic<eval::IndexCache*> index_cache_{nullptr};
};

/// \brief Enumerates every fact over `schema` with constants drawn from
/// `domain` — the fact universe of a finite-domain instance
/// (N = Σ_R |dom|^arity(R) facts). Order is deterministic.
///
/// Fails with ResourceExhausted if the universe would exceed `max_facts`.
Result<std::vector<Fact>> EnumerateFactUniverse(const Schema& schema,
                                                const std::vector<Value>& domain,
                                                size_t max_facts = 1u << 22);

}  // namespace psc

#endif  // PSC_RELATIONAL_DATABASE_H_
