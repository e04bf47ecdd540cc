#include "psc/delta/incremental.h"

#include <algorithm>
#include <utility>

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {
namespace delta {

IncrementalSystem::IncrementalSystem(SourceCollection collection,
                                     QuerySystem::Options options)
    : collection_(std::move(collection)), options_(std::move(options)) {}

IncrementalSystem::IncrementalSystem(IncrementalSystem&& o) noexcept
    : collection_(std::move(o.collection_)),
      options_(std::move(o.options_)),
      system_(std::move(o.system_)),
      report_(std::move(o.report_)),
      answers_(std::move(o.answers_)) {}

IncrementalSystem& IncrementalSystem::operator=(
    IncrementalSystem&& o) noexcept {
  if (this == &o) return *this;
  collection_ = std::move(o.collection_);
  options_ = std::move(o.options_);
  system_ = std::move(o.system_);
  report_ = std::move(o.report_);
  answers_ = std::move(o.answers_);
  return *this;
}

Result<IncrementalSystem> IncrementalSystem::Create(
    SourceCollection collection, QuerySystem::Options options) {
  // Surface construction errors eagerly rather than on the first query.
  PSC_ASSIGN_OR_RETURN(QuerySystem probe,
                       QuerySystem::Create(collection, options));
  IncrementalSystem system(std::move(collection), std::move(options));
  {
    // Uncontended (the object is local) but keeps the guarded-field
    // access provable to the thread-safety analysis.
    sync::MutexLock lock(&system.cache_mutex_);
    system.system_.emplace(std::move(probe));
  }
  return system;
}

Result<const QuerySystem*> IncrementalSystem::GetOrBuildSystem() const {
  sync::MutexLock lock(&cache_mutex_);
  if (!system_.has_value()) {
    PSC_ASSIGN_OR_RETURN(QuerySystem system,
                         QuerySystem::Create(collection_, options_));
    system_.emplace(std::move(system));
  }
  return &*system_;
}

std::vector<size_t> IncrementalSystem::DirtySourcesSince(uint64_t since) const {
  std::vector<size_t> dirty;
  for (size_t i = 0; i < collection_.size(); ++i) {
    if (collection_.source_generation(i) > since) dirty.push_back(i);
  }
  return dirty;
}

Result<CollectionDeltaSummary> IncrementalSystem::ApplyDelta(
    const CollectionDelta& delta) {
  sync::WriterLock data_lock(&data_mutex_);
  PSC_OBS_SPAN("delta.apply");
  PSC_ASSIGN_OR_RETURN(const CollectionDeltaSummary summary,
                       collection_.ApplyDelta(delta));
  PSC_OBS_COUNTER_INC("delta.batches_applied");
  if (summary.changed()) {
    sync::MutexLock cache_lock(&cache_mutex_);
    // The QuerySystem snapshots the collection, so it must be rebuilt; the
    // report and answer caches self-invalidate through their generation
    // stamps and stay for dirty-scoped reuse.
    system_.reset();
  }
  return summary;
}

Result<ConsistencyReport> IncrementalSystem::CheckConsistency() const {
  sync::ReaderLock data_lock(&data_mutex_);
  PSC_OBS_SPAN("delta.check_consistency");
  const uint64_t now = collection_.generation();
  CachedReport snapshot;
  {
    sync::MutexLock cache_lock(&cache_mutex_);
    snapshot = report_;
  }

  // Nothing mutated since the cached report: return it outright.
  if (snapshot.valid && snapshot.generation == now) {
    PSC_OBS_COUNTER_INC("delta.consistency.cache_hits");
    PSC_OBS_COUNTER_ADD("delta.consistency.combinations_skipped",
                        snapshot.last_full_combinations);
    ConsistencyReport report = snapshot.report;
    report.method = "delta-cache";
    report.combinations_tried = 0;
    report.candidates_checked = 0;
    report.combinations_skipped = snapshot.last_full_combinations;
    return report;
  }

  if (snapshot.valid &&
      snapshot.report.verdict == ConsistencyVerdict::kConsistent &&
      snapshot.report.witness.has_value()) {
    const std::vector<size_t> dirty = DirtySourcesSince(snapshot.generation);
    // Clean sources kept their measures against the unchanged witness, so
    // only the dirty ones can newly fail (see general_consistency.h).
    PSC_ASSIGN_OR_RETURN(
        const bool survives,
        WitnessSatisfiesSources(collection_, *snapshot.report.witness, dirty));
    if (survives) {
      PSC_OBS_COUNTER_INC("delta.consistency.revalidations");
      PSC_OBS_COUNTER_ADD("delta.consistency.combinations_skipped",
                          snapshot.last_full_combinations);
      ConsistencyReport report;
      report.verdict = ConsistencyVerdict::kConsistent;
      report.witness = snapshot.report.witness;
      report.method = "delta-revalidate";
      report.candidates_checked = 1;
      report.combinations_skipped = snapshot.last_full_combinations;
      sync::MutexLock cache_lock(&cache_mutex_);
      report_ = CachedReport{true, now, report, snapshot.last_full_combinations};
      return report;
    }
    // The witness broke. For identity views a cheap repair often works:
    // missing sound facts can only be the dirty sources' new extension
    // tuples, so try the witness plus those before paying for the full
    // pipeline. The repaired candidate is verified against *every* source
    // (growing D can lower clean sources' completeness).
    std::string identity_relation;
    if (collection_.AllIdentityViews(&identity_relation)) {
      Database repaired = *snapshot.report.witness;
      for (const size_t i : dirty) {
        for (const Tuple& tuple : collection_.source(i).extension()) {
          repaired.AddFact(identity_relation, tuple);
        }
      }
      PSC_ASSIGN_OR_RETURN(const bool possible,
                           collection_.IsPossibleWorld(repaired));
      if (possible) {
        PSC_OBS_COUNTER_INC("delta.consistency.repairs");
        PSC_OBS_COUNTER_ADD("delta.consistency.combinations_skipped",
                            snapshot.last_full_combinations);
        ConsistencyReport report;
        report.verdict = ConsistencyVerdict::kConsistent;
        report.witness = std::move(repaired);
        report.method = "delta-repair";
        report.candidates_checked = 2;
        report.combinations_skipped = snapshot.last_full_combinations;
        sync::MutexLock cache_lock(&cache_mutex_);
        report_ =
            CachedReport{true, now, report, snapshot.last_full_combinations};
        return report;
      }
    }
  }

  PSC_ASSIGN_OR_RETURN(const QuerySystem* system, GetOrBuildSystem());
  PSC_ASSIGN_OR_RETURN(ConsistencyReport report, system->CheckConsistency());
  PSC_OBS_COUNTER_INC("delta.consistency.full_checks");
  sync::MutexLock cache_lock(&cache_mutex_);
  report_ = CachedReport{true, now, report, report.combinations_tried};
  return report;
}

Result<QueryAnswer> IncrementalSystem::AnswerExact(
    const ConjunctiveQuery& query, const std::vector<Value>& domain) const {
  sync::ReaderLock data_lock(&data_mutex_);
  PSC_OBS_SPAN("delta.answer_exact");
  const uint64_t now = collection_.generation();
  std::string key = query.ToString();
  for (const Value& value : domain) key += StrCat("|", value.ToString());

  {
    sync::MutexLock cache_lock(&cache_mutex_);
    const auto it = answers_.find(key);
    if (it != answers_.end()) {
      // Reuse only the answer of the current generation, while the
      // collection is known consistent at it (file comment).
      const bool consistent_now =
          report_.valid && report_.generation == now &&
          report_.report.verdict == ConsistencyVerdict::kConsistent;
      const bool current = it->second.generation == now;
      if (consistent_now && current) {
        PSC_OBS_COUNTER_INC("delta.answers.cache_hits");
        QueryAnswer answer = it->second.answer;
        answer.from_cache = true;
        return answer;
      }
      if (!current) answers_.erase(it);  // generations only grow
    }
  }

  PSC_ASSIGN_OR_RETURN(const QuerySystem* system, GetOrBuildSystem());
  PSC_ASSIGN_OR_RETURN(QueryAnswer answer, system->AnswerExact(query, domain));
  PSC_OBS_COUNTER_INC("delta.answers.computed");
  sync::MutexLock cache_lock(&cache_mutex_);
  answers_[key] = CachedAnswer{answer, now};
  return answer;
}

SourceCollection IncrementalSystem::CollectionSnapshot() const {
  sync::ReaderLock data_lock(&data_mutex_);
  return collection_;
}

uint64_t IncrementalSystem::generation() const {
  sync::ReaderLock data_lock(&data_mutex_);
  return collection_.generation();
}

size_t IncrementalSystem::AnswerCacheSize() const {
  sync::MutexLock lock(&cache_mutex_);
  return answers_.size();
}

}  // namespace delta
}  // namespace psc
