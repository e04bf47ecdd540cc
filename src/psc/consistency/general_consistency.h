#ifndef PSC_CONSISTENCY_GENERAL_CONSISTENCY_H_
#define PSC_CONSISTENCY_GENERAL_CONSISTENCY_H_

#include <optional>
#include <string>
#include <utility>

#include "psc/limits/budget.h"
#include "psc/relational/database.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Three-valued consistency verdict. The general problem is
/// NP-complete (Theorem 3.2), so the checker reports kUnknown when every
/// exact strategy exceeds its resource budget instead of guessing.
enum class ConsistencyVerdict {
  kConsistent,
  kInconsistent,
  kUnknown,
};

const char* ConsistencyVerdictToString(ConsistencyVerdict verdict);

/// \brief Outcome of a general consistency check.
struct ConsistencyReport {
  ConsistencyVerdict verdict = ConsistencyVerdict::kUnknown;
  /// A witness possible world when consistent.
  std::optional<Database> witness;
  /// Which strategy decided ("identity-counter", "canonical-freeze",
  /// "exhaustive", "none").
  std::string method = "none";
  /// Why the verdict is kUnknown, when it is.
  std::string unknown_reason;
  /// Allowable combinations U examined by the template strategies. Above
  /// one thread it also counts combinations evaluated speculatively past
  /// the deciding one, so it can exceed the one-thread count, except when
  /// combination 0 decides: that one runs before any fan-out.
  uint64_t combinations_tried = 0;
  /// Candidate databases tested against poss(S).
  uint64_t candidates_checked = 0;
  /// Allowable combinations the delta engine avoided re-exploring because a
  /// prior witness survived a dirty-source-scoped revalidation (0 for a
  /// from-scratch check). See psc/delta/incremental.h.
  uint64_t combinations_skipped = 0;
};

/// \brief Checks an existing witness against the bounds of *selected*
/// sources only — the dirty-scoped core of incremental re-checking.
///
/// Rationale: a source whose extension did not change keeps its measured
/// c_D/s_D against an unchanged witness D, so its bounds need no re-check;
/// after a delta only the mutated (dirty) sources can newly fail. A true
/// return therefore proves D ∈ poss(S') for the mutated collection S'
/// whenever D ∈ poss(S) held before and `source_indices` covers every
/// dirty source. Out-of-range indices are an error.
Result<bool> WitnessSatisfiesSources(const SourceCollection& collection,
                                     const Database& witness,
                                     const std::vector<size_t>& source_indices);

/// \brief Exact / best-effort consistency checking for arbitrary
/// conjunctive views, the Theorem 3.2 NP procedure made concrete.
///
/// Strategy pipeline:
///  1. **identity-counter** — if every view is the identity over one
///     relation, delegate to the exact signature-group checker (complete).
///  2. **canonical-freeze** — enumerate allowable combinations U
///     (Theorem 4.1); for each, build 𝒯^U(S), freeze its tableau with
///     fresh constants and test the frozen database against poss(S).
///     Accepting is sound (a concrete witness is exhibited); rejection of
///     every candidate is *not* a proof of inconsistency, because a
///     satisfying world may require merging existential variables.
///     Hands over to the exhaustive search after
///     `kMaxFreezeCombinations` combinations.
///  3. **exhaustive** — enumerate all databases over the canonical domain
///     (mentioned constants plus at most `kMaxFreshConstants` fresh ones)
///     within the Lemma 3.1 size bound. Complete but exponential; only
///     attempted while the fact universe stays within
///     `BruteForceWorldEnumerator::kMaxUniverseFacts`.
class GeneralConsistencyChecker {
 public:
  /// Combinations the canonical-freeze pass tries before it hands over to
  /// the exhaustive search: the strategy switch between the two.
  static constexpr uint64_t kMaxFreezeCombinations = uint64_t{1} << 20;
  /// Fresh constants the exhaustive search adds to the canonical domain.
  /// Each one widens every relation's fact universe, so more would only
  /// push the universe past the brute-force bound; a domain cut short
  /// this way yields kUnknown, never kInconsistent.
  static constexpr size_t kMaxFreshConstants = 4;

  struct Options {
    /// Worker threads for the canonical-freeze search. 0 (the default)
    /// resolves via PSC_THREADS / hardware_concurrency(); 1 evaluates
    /// every combination on the calling thread. Above one thread,
    /// combination 0 still runs on the calling thread, and a pool is built
    /// only when it fails to decide the search. The verdict and witness
    /// are deterministic for every thread count: the search returns the
    /// outcome of the minimal combination index, which is exactly the
    /// combination a one-thread scan stops at.
    size_t threads = 0;
    /// Cooperative deadline / node budget shared by every strategy: one
    /// node per allowable combination, count-vector node or brute-force
    /// subset. A tripped budget degrades the verdict to kUnknown (with the
    /// trip message as `unknown_reason`) instead of failing — consistency
    /// is three-valued, so "ran out of time" is an honest verdict.
    limits::Budget budget;
  };

  GeneralConsistencyChecker() : options_() {}
  explicit GeneralConsistencyChecker(Options options)
      : options_(std::move(options)) {}

  Result<ConsistencyReport> Check(const SourceCollection& collection) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace psc

#endif  // PSC_CONSISTENCY_GENERAL_CONSISTENCY_H_
