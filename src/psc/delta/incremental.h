#ifndef PSC_DELTA_INCREMENTAL_H_
#define PSC_DELTA_INCREMENTAL_H_

/// \file
/// The incremental-maintenance layer over an evolving source collection
/// (ROADMAP item 2; the paper's §6 caches and mirrors whose extensions
/// drift over time).
///
/// An `IncrementalSystem` owns a mutable `SourceCollection` plus caches of
/// the expensive derived state — the consistency report with its witness
/// world, and exact query answers — and keeps both warm across
/// `ApplyDelta` calls by *dirty-scoped invalidation*:
///
///  * **Consistency.** Bounds are checked per source, and a source whose
///    extension did not change keeps its measured c_D/s_D against an
///    unchanged witness. So after a delta only the *dirty* sources (those
///    with a generation newer than the cached report) are re-checked
///    against the cached witness ("delta-revalidate"). If a dirty source's
///    bounds newly fail, an identity-view repair tries the witness plus
///    the dirty extensions ("delta-repair") before falling back to the
///    full strategy pipeline. Every avoided combination is surfaced in
///    `ConsistencyReport::combinations_skipped` and the
///    `delta.consistency.combinations_skipped` counter.
///
///  * **Answers.** A cached answer is reused iff the collection's
///    generation still equals the one it was computed at and the current
///    verdict is kConsistent. A delta confined to another relation group
///    leaves a query's confidences unchanged, but not `worlds_used`:
///    |poss(S)| is the product of one count per group, so any effective
///    delta can change it, and every hit must equal a recomputation.
///
/// Thread safety: queries and consistency checks take a shared lock,
/// `ApplyDelta` an exclusive one, so readers stream against a stable
/// snapshot while writers serialize — the pattern a long-lived `pscd`
/// service needs (ROADMAP item 1). Cache bookkeeping uses a second small
/// mutex; two concurrent cache misses may duplicate work but produce
/// bit-identical results.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "psc/core/query_system.h"
#include "psc/source/source_collection.h"
#include "psc/sync/mutex.h"
#include "psc/util/result.h"

namespace psc {
namespace delta {

/// \brief A `QuerySystem` façade that survives mutations.
class IncrementalSystem {
 public:
  /// Builds an incremental system over `collection`. `options` configures
  /// the underlying `QuerySystem` (threads, budgets, compiled eval, …).
  static Result<IncrementalSystem> Create(SourceCollection collection,
                                          QuerySystem::Options options = {});

  // Moves transfer guarded state without locks: the contract (as for any
  // std type) is that no other thread touches either operand during the
  // move, so the analysis is waived for both.
  IncrementalSystem(IncrementalSystem&&) noexcept;
  IncrementalSystem& operator=(IncrementalSystem&&) noexcept
      PSC_NO_THREAD_SAFETY_ANALYSIS;

  /// \brief Applies a batched extension delta (exclusive; serializes with
  /// queries). Validation is all-or-nothing (see
  /// `SourceCollection::ApplyDelta`); a no-op delta invalidates nothing.
  Result<CollectionDeltaSummary> ApplyDelta(const CollectionDelta& delta);

  /// \brief Consistency of the current collection, reusing the cached
  /// witness where the dirty-source argument allows (method
  /// "delta-cache", "delta-revalidate" or "delta-repair"); otherwise the
  /// full `GeneralConsistencyChecker` pipeline runs and its report is
  /// cached.
  Result<ConsistencyReport> CheckConsistency() const;

  /// \brief Exact query answering with a per-generation answer cache (see
  /// file comment). Cache hits return `QueryAnswer::from_cache = true` and
  /// are bit-identical to recomputation. NOTE: reuse requires a current
  /// kConsistent report — in streaming loops call `CheckConsistency()`
  /// after each delta (the CLI's `--apply-delta` mode does), or every
  /// answer recomputes.
  Result<QueryAnswer> AnswerExact(const ConjunctiveQuery& query,
                                  const std::vector<Value>& domain) const;

  /// Snapshot accessors (take the shared lock).
  SourceCollection CollectionSnapshot() const;
  uint64_t generation() const;

  /// Number of cached query answers currently stored (tests).
  size_t AnswerCacheSize() const;

 private:
  IncrementalSystem(SourceCollection collection, QuerySystem::Options options);

  struct CachedReport {
    bool valid = false;
    /// collection.generation() the report describes.
    uint64_t generation = 0;
    ConsistencyReport report;
    /// combinations_tried by the last *full* check — the work a
    /// revalidation hit avoids.
    uint64_t last_full_combinations = 0;
  };

  struct CachedAnswer {
    QueryAnswer answer;
    /// collection.generation() at compute time.
    uint64_t generation = 0;
  };

  /// Builds (once per mutation) the QuerySystem over the current
  /// collection. Caller must hold the shared data lock.
  Result<const QuerySystem*> GetOrBuildSystem() const
      PSC_REQUIRES_SHARED(data_mutex_);

  /// Source indices whose generation is newer than `since`.
  std::vector<size_t> DirtySourcesSince(uint64_t since) const
      PSC_REQUIRES_SHARED(data_mutex_);

  mutable sync::SharedMutex data_mutex_{"delta.data", sync::kRankDeltaData};
  SourceCollection collection_ PSC_GUARDED_BY(data_mutex_);
  QuerySystem::Options options_;

  mutable sync::Mutex cache_mutex_{"delta.cache", sync::kRankDeltaCache};
  mutable std::optional<QuerySystem> system_ PSC_GUARDED_BY(cache_mutex_);
  mutable CachedReport report_ PSC_GUARDED_BY(cache_mutex_);
  mutable std::map<std::string, CachedAnswer> answers_
      PSC_GUARDED_BY(cache_mutex_);
};

}  // namespace delta
}  // namespace psc

#endif  // PSC_DELTA_INCREMENTAL_H_
