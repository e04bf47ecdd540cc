#ifndef PSC_CONSISTENCY_DIAGNOSTICS_H_
#define PSC_CONSISTENCY_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "psc/consistency/general_consistency.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Diagnostics for inconsistent collections — a concrete take on the
/// paper's Section 6 future-work direction ("explore how a notion of
/// consensus can be defined and used to detect the most trustworthy
/// sources"). Extension beyond the paper.
///
/// All routines are exact but exponential in the number of sources; they
/// are meant for interactive investigation of small federations.

/// Per-source blame: does removing this one source restore consistency?
struct SourceBlame {
  std::string source_name;
  /// Verdict of the collection without this source.
  ConsistencyVerdict verdict_without = ConsistencyVerdict::kUnknown;
};

/// \brief Checks, for each source, whether the collection minus that source
/// is consistent. Sources whose removal flips the verdict to consistent are
/// the prime suspects for over-claimed bounds.
Result<std::vector<SourceBlame>> BlameSources(
    const SourceCollection& collection,
    const GeneralConsistencyChecker& checker);

/// Most sources `MaximalConsistentSubcollections` accepts. It materializes
/// and sorts all 2^n subset masks (64-bit) before the first check, so the
/// bound holds that list at 2^16 entries; a federation this size is
/// already past interactive diagnosis.
inline constexpr size_t kMaxDiagnosedSources = 16;

/// \brief Finds all maximal (by set inclusion) consistent sub-collections.
///
/// Enumerates subsets from largest to smallest (n ≤ `kMaxDiagnosedSources`,
/// ResourceExhausted past it), skipping subsets of already-found consistent
/// sets. Subsets with an Unknown verdict are treated as not-known-consistent
/// and skipped conservatively.
Result<std::vector<std::vector<std::string>>> MaximalConsistentSubcollections(
    const SourceCollection& collection,
    const GeneralConsistencyChecker& checker);

/// \brief The largest uniform relaxation factor λ ∈ [0,1] (to `precision`
/// denominator) such that scaling every source's completeness and soundness
/// bound by λ yields a consistent collection. λ = 1 means the collection is
/// already consistent; small λ quantifies how far the claims overreach.
Result<Rational> MaxUniformRelaxation(const SourceCollection& collection,
                                      const GeneralConsistencyChecker& checker,
                                      int64_t precision = 64);

}  // namespace psc

#endif  // PSC_CONSISTENCY_DIAGNOSTICS_H_
