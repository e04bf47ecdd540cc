#include "psc/consistency/diagnostics.h"

#include <algorithm>

#include "psc/util/string_util.h"

namespace psc {

namespace {

/// The sub-collection keeping exactly the sources whose bit is set.
Result<SourceCollection> Subcollection(const SourceCollection& collection,
                                       uint64_t mask) {
  std::vector<SourceDescriptor> kept;
  for (size_t i = 0; i < collection.size(); ++i) {
    if ((mask >> i) & 1) kept.push_back(collection.source(i));
  }
  return SourceCollection::Create(std::move(kept));
}

/// `collection` with every bound multiplied by `factor`.
Result<SourceCollection> ScaleBounds(const SourceCollection& collection,
                                     const Rational& factor) {
  std::vector<SourceDescriptor> scaled;
  for (const SourceDescriptor& source : collection.sources()) {
    PSC_ASSIGN_OR_RETURN(
        SourceDescriptor descriptor,
        SourceDescriptor::Create(source.name(), source.view(),
                                 source.extension(),
                                 source.completeness_bound() * factor,
                                 source.soundness_bound() * factor));
    scaled.push_back(std::move(descriptor));
  }
  return SourceCollection::Create(std::move(scaled));
}

}  // namespace

Result<std::vector<SourceBlame>> BlameSources(
    const SourceCollection& collection,
    const GeneralConsistencyChecker& checker) {
  if (collection.size() > 63) {
    return Status::ResourceExhausted("blame analysis supports <= 63 sources");
  }
  std::vector<SourceBlame> blames;
  const limits::Budget& budget = checker.options().budget;
  const uint64_t all = (uint64_t{1} << collection.size()) - 1;
  for (size_t i = 0; i < collection.size(); ++i) {
    // One node per leave-one-out check; the sub-checks observe the same
    // shared budget, so a mid-check trip also stops this loop here.
    if (!budget.Charge()) return budget.ToStatus();
    PSC_ASSIGN_OR_RETURN(
        const SourceCollection reduced,
        Subcollection(collection, all & ~(uint64_t{1} << i)));
    PSC_ASSIGN_OR_RETURN(const ConsistencyReport report,
                         checker.Check(reduced));
    blames.push_back(
        SourceBlame{collection.source(i).name(), report.verdict});
  }
  return blames;
}

Result<std::vector<std::vector<std::string>>> MaximalConsistentSubcollections(
    const SourceCollection& collection,
    const GeneralConsistencyChecker& checker) {
  const size_t n = collection.size();
  if (n > kMaxDiagnosedSources) {
    return Status::ResourceExhausted(
        StrCat("subset enumeration over ", n, " sources exceeds the limit of ",
               kMaxDiagnosedSources));
  }
  // Visit subsets grouped by decreasing popcount so supersets come first.
  std::vector<uint64_t> masks;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    masks.push_back(mask);
  }
  std::sort(masks.begin(), masks.end(), [](uint64_t a, uint64_t b) {
    const int pa = __builtin_popcountll(a);
    const int pb = __builtin_popcountll(b);
    return pa != pb ? pa > pb : a < b;
  });

  std::vector<uint64_t> maximal_masks;
  std::vector<std::vector<std::string>> result;
  for (const uint64_t mask : masks) {
    bool dominated = false;
    for (const uint64_t found : maximal_masks) {
      if ((mask & found) == mask) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    if (!checker.options().budget.Charge()) {
      return checker.options().budget.ToStatus();
    }
    PSC_ASSIGN_OR_RETURN(const SourceCollection sub,
                         Subcollection(collection, mask));
    PSC_ASSIGN_OR_RETURN(const ConsistencyReport report, checker.Check(sub));
    if (report.verdict != ConsistencyVerdict::kConsistent) continue;
    maximal_masks.push_back(mask);
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) names.push_back(collection.source(i).name());
    }
    result.push_back(std::move(names));
  }
  return result;
}

Result<Rational> MaxUniformRelaxation(const SourceCollection& collection,
                                      const GeneralConsistencyChecker& checker,
                                      int64_t precision) {
  if (precision < 1) {
    return Status::InvalidArgument("precision must be >= 1");
  }
  // Binary search over λ = j/precision. Consistency is monotone in λ:
  // lowering every bound only enlarges poss(S).
  int64_t lo = 0;        // λ = 0 is always consistent (empty database)
  int64_t hi = precision;
  // Fast path: already consistent at λ = 1.
  PSC_ASSIGN_OR_RETURN(ConsistencyReport full, checker.Check(collection));
  if (full.verdict == ConsistencyVerdict::kConsistent) return Rational::One();
  if (full.verdict == ConsistencyVerdict::kUnknown) {
    return Status::ResourceExhausted(
        "consistency undecided at lambda = 1; relaxation search aborted");
  }
  while (hi - lo > 1) {
    if (!checker.options().budget.Charge()) {
      return checker.options().budget.ToStatus();
    }
    const int64_t mid = lo + (hi - lo) / 2;
    PSC_ASSIGN_OR_RETURN(const SourceCollection scaled,
                         ScaleBounds(collection, Rational(mid, precision)));
    PSC_ASSIGN_OR_RETURN(const ConsistencyReport report,
                         checker.Check(scaled));
    if (report.verdict == ConsistencyVerdict::kConsistent) {
      lo = mid;
    } else if (report.verdict == ConsistencyVerdict::kInconsistent) {
      hi = mid;
    } else {
      return Status::ResourceExhausted(
          StrCat("consistency undecided at lambda = ", mid, "/", precision));
    }
  }
  return Rational(lo, precision);
}

}  // namespace psc
