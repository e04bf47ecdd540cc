#include "psc/consistency/general_consistency.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "psc/consistency/identity_consistency.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/exec/parallel.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/source/measures.h"
#include "psc/sync/mutex.h"
#include "psc/tableau/template_builder.h"
#include "psc/util/string_util.h"

namespace psc {

const char* ConsistencyVerdictToString(ConsistencyVerdict verdict) {
  switch (verdict) {
    case ConsistencyVerdict::kConsistent:
      return "CONSISTENT";
    case ConsistencyVerdict::kInconsistent:
      return "INCONSISTENT";
    case ConsistencyVerdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

Result<bool> WitnessSatisfiesSources(
    const SourceCollection& collection, const Database& witness,
    const std::vector<size_t>& source_indices) {
  for (const size_t index : source_indices) {
    if (index >= collection.size()) {
      return Status::InvalidArgument(
          StrCat("source index ", index, " out of range (collection has ",
                 collection.size(), " sources)"));
    }
    PSC_ASSIGN_OR_RETURN(const bool satisfied,
                         SatisfiesBounds(collection.source(index), witness));
    if (!satisfied) return false;
  }
  return true;
}

namespace {

/// Canonical-freeze pass: tries each allowable combination's frozen
/// tableau as a concrete witness, in enumeration order. Sound for
/// acceptance only.
///
/// Combination 0 (every uᵢ = vᵢ, the first combination the enumerator
/// yields) runs on the calling thread, and at one thread so does every
/// other. Only once combination 0 has failed to decide the search does a
/// multi-threaded pass take the shared pool and run the remaining
/// combinations on it in batches of blocks; each runner evaluates a
/// combination exactly as the calling thread would. The winning outcome
/// is the one with the *minimal* combination index, which is the
/// combination a one-thread scan stops at, so the returned witness (or
/// error) is bit-identical for every thread count. An atomic `bound` set
/// to the current best index lets the runners and the enumeration skip
/// indices that can no longer win, which is what cancels the search once
/// a witness is found.
Result<std::optional<Database>> TryCanonicalFreezeParallel(
    const SourceCollection& collection,
    const GeneralConsistencyChecker::Options& options, size_t threads,
    ConsistencyReport* report) {
  TemplateBuilder builder(&collection);
  constexpr size_t kBlockSize = 16;
  constexpr uint64_t kNoIndex = ~uint64_t{0};

  struct SearchState {
    sync::Mutex mu{"consistency.search", sync::kRankSearchOutcome};
    /// Index of the best (minimal) decided combination; its outcome.
    uint64_t best_index PSC_GUARDED_BY(mu);
    Status error PSC_GUARDED_BY(mu);
    std::optional<Database> witness PSC_GUARDED_BY(mu);
    /// Combinations with index >= bound cannot win; they may be skipped.
    std::atomic<uint64_t> bound;
    std::atomic<uint64_t> combinations_tried{0};
    std::atomic<uint64_t> candidates_checked{0};
  };
  SearchState state;
  state.best_index = kNoIndex;
  state.bound.store(kNoIndex, std::memory_order_relaxed);

  // Records a decided combination; the minimal index wins.
  auto record = [&state](uint64_t index, Status error,
                         std::optional<Database> witness) {
    sync::MutexLock lock(&state.mu);
    if (index >= state.best_index) return;
    state.best_index = index;
    state.error = std::move(error);
    state.witness = std::move(witness);
    state.bound.store(index, std::memory_order_release);
  };

  // Tests one candidate; true when it decides its combination.
  auto decide = [&](uint64_t index, Database& candidate) {
    state.candidates_checked.fetch_add(1, std::memory_order_relaxed);
    PSC_OBS_COUNTER_INC("consistency.candidates_checked");
    auto possible = collection.IsPossibleWorld(candidate);
    if (!possible.ok()) {
      record(index, possible.status(), std::nullopt);
      return true;
    }
    if (!*possible) return false;
    record(index, Status(), std::move(candidate));
    return true;
  };

  // Evaluates one combination: build 𝒯^U, then test its frozen candidates.
  auto evaluate = [&](uint64_t index, const Combination& combination) {
    if (index >= state.bound.load(std::memory_order_acquire)) return;
    // The enumeration charges the budget per combination; a batch only
    // observes the trip, so its remaining blocks finish quickly.
    if (options.budget.reason() != limits::StopReason::kNone) return;
    state.combinations_tried.fetch_add(1, std::memory_order_relaxed);
    PSC_OBS_COUNTER_INC("consistency.combinations_tried");
    auto built = builder.BuildTableau(combination);
    if (!built.ok()) {
      // A built-in constrains an existential variable: this combination
      // cannot be frozen faithfully, so it decides nothing.
      if (built.status().code() == StatusCode::kUnimplemented) return;
      record(index, built.status(), std::nullopt);
      return;
    }
    if (!built->has_value()) return;  // rep(𝒯^U) = ∅
    // Two candidates: merged freezing reuses constants already forced by
    // other sources (needed under exact catalogs), fresh freezing keeps
    // existential witnesses distinct. Acceptance is verified, so trying
    // both is sound. The fresh one is built only once the merged one is
    // rejected, and tested only when it differs.
    Database merged = FreezeTableauWithGroundMerge(**built);
    if (decide(index, merged)) return;
    Database fresh = FreezeTableau(**built);
    if (fresh != merged) decide(index, fresh);
  };

  // Past combination 0, a multi-threaded pass collects combinations in
  // blocks and runs a batch of blocks at a time on the shared pool; the
  // calling thread runs blocks too, so it never waits on queued work.
  using Block = std::vector<std::pair<uint64_t, Combination>>;
  exec::ThreadPool* pool = nullptr;  // taken at the first fan-out
  std::vector<Block> batch;
  const auto run_batch = [&] {
    exec::ParallelFor(pool, batch.size(), [&](size_t b) {
      PSC_OBS_SPAN("consistency.freeze_block");
      for (const auto& [index, combination] : batch[b]) {
        evaluate(index, combination);
      }
    });
    batch.clear();
  };

  uint64_t next_index = 0;
  auto enumerated =
      builder.ForEachAllowableCombination([&](const Combination& combination) {
        if (next_index >= state.bound.load(std::memory_order_acquire)) {
          return false;  // a lower index already decided the search
        }
        if (next_index >= GeneralConsistencyChecker::kMaxFreezeCombinations) {
          return false;
        }
        // One budget node per combination; on a trip the caller reads the
        // reason off the shared budget and degrades to kUnknown.
        if (!options.budget.Charge()) return false;
        const uint64_t index = next_index++;
        if (threads == 1 || index == 0) {
          evaluate(index, combination);
          return next_index < state.bound.load(std::memory_order_acquire);
        }
        if (pool == nullptr) pool = exec::SharedPool(threads);
        if (batch.empty() || batch.back().size() >= kBlockSize) {
          batch.emplace_back();
          batch.back().reserve(kBlockSize);
        }
        batch.back().emplace_back(index, combination);  // copy: reused ref
        if (batch.size() >= 4 * pool->size() &&
            batch.back().size() >= kBlockSize) {
          run_batch();
          return next_index < state.bound.load(std::memory_order_acquire);
        }
        return true;
      });
  if (!batch.empty()) run_batch();
  PSC_RETURN_NOT_OK(enumerated.status());

  report->combinations_tried =
      state.combinations_tried.load(std::memory_order_relaxed);
  report->candidates_checked =
      state.candidates_checked.load(std::memory_order_relaxed);
  sync::MutexLock lock(&state.mu);
  PSC_RETURN_NOT_OK(state.error);
  return std::move(state.witness);
}

}  // namespace

Result<ConsistencyReport> GeneralConsistencyChecker::Check(
    const SourceCollection& collection) const {
  PSC_OBS_SPAN("consistency.check");
  PSC_OBS_COUNTER_INC("consistency.checks");
  ConsistencyReport report;

  if (collection.size() == 0) {
    // No constraints: every database (e.g. the empty one) is possible.
    report.verdict = ConsistencyVerdict::kConsistent;
    report.witness = Database();
    report.method = "trivial";
    return report;
  }

  // Strategy 1: exact identity-view decision procedure.
  if (collection.AllIdentityViews()) {
    auto identity = CheckIdentityConsistency(collection, options_.budget);
    if (identity.ok()) {
      report.method = "identity-counter";
      report.verdict = identity->consistent ? ConsistencyVerdict::kConsistent
                                            : ConsistencyVerdict::kInconsistent;
      report.witness = std::move(identity->witness);
      if (report.witness.has_value()) {
        PSC_OBS_GAUGE_SET("consistency.witness_facts", report.witness->size());
      }
      return report;
    }
    if (identity.status().code() != StatusCode::kResourceExhausted &&
        identity.status().code() != StatusCode::kDeadlineExceeded) {
      return identity.status();
    }
    report.unknown_reason = identity.status().message();
    return report;
  }

  // Strategy 2: canonical freezing of Theorem 4.1 templates. With more
  // than one resolved worker the combinations after the first run on the
  // shared pool; the outcome is deterministic (minimal-index witness), so
  // every thread count returns the same verdict and witness.
  PSC_ASSIGN_OR_RETURN(
      std::optional<Database> witness,
      TryCanonicalFreezeParallel(collection, options_,
                                 exec::ResolveThreadCount(options_.threads),
                                 &report));
  if (witness.has_value()) {
    report.verdict = ConsistencyVerdict::kConsistent;
    report.witness = std::move(witness);
    report.method = "canonical-freeze";
    PSC_OBS_GAUGE_SET("consistency.witness_facts", report.witness->size());
    return report;
  }

  // A tripped budget means the canonical-freeze pass was cut short; the
  // exhaustive fallback would only burn more wall clock, so degrade to
  // kUnknown right away with the trip message as the reason.
  if (options_.budget.reason() != limits::StopReason::kNone) {
    report.unknown_reason = options_.budget.ToStatus().message();
    return report;
  }

  // Strategy 3: exhaustive search over the canonical domain within the
  // Lemma 3.1 bound.
  std::vector<Value> domain = collection.MentionedConstants();
  // The Theorem 3.2 NP procedure fixes m·p·k constants; we add fresh ones
  // up to kMaxFreshConstants and remember whether we reached the bound.
  size_t max_body = 0;
  size_t max_arity = 1;
  for (const SourceDescriptor& source : collection.sources()) {
    max_body = std::max(max_body, source.view().RelationalBodySize());
  }
  for (const std::string& name : collection.schema().RelationNames()) {
    auto arity = collection.schema().Arity(name);
    if (arity.ok()) max_arity = std::max(max_arity, *arity);
  }
  const size_t constants_needed =
      max_body * collection.TotalExtensionSize() * max_arity;
  const size_t fresh_needed =
      constants_needed > domain.size() ? constants_needed - domain.size() : 0;
  const size_t fresh_added = std::min(fresh_needed, kMaxFreshConstants);
  for (size_t i = 0; i < fresh_added; ++i) {
    domain.push_back(Value(StrCat("\xE2\x8A\xA5", i)));  // "⊥i"
  }
  const bool domain_complete = fresh_added == fresh_needed;

  BruteForceWorldEnumerator enumerator(&collection, domain, options_.budget);
  std::optional<Database> found;
  auto completed = enumerator.ForEachPossibleWorld([&](const Database& db) {
    ++report.candidates_checked;
    found = db;
    return false;
  });
  if (completed.ok()) {
    if (found.has_value()) {
      report.verdict = ConsistencyVerdict::kConsistent;
      report.witness = std::move(found);
      report.method = "exhaustive";
      PSC_OBS_GAUGE_SET("consistency.witness_facts", report.witness->size());
      return report;
    }
    if (domain_complete) {
      report.verdict = ConsistencyVerdict::kInconsistent;
      report.method = "exhaustive";
      return report;
    }
    report.unknown_reason = StrCat(
        "no witness over a truncated canonical domain (needed ", fresh_needed,
        " fresh constants, searched with ", fresh_added, ")");
    return report;
  }
  if (completed.status().code() != StatusCode::kResourceExhausted &&
      completed.status().code() != StatusCode::kDeadlineExceeded) {
    return completed.status();
  }
  report.unknown_reason = completed.status().message();
  return report;
}

}  // namespace psc
