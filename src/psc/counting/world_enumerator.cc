#include "psc/counting/world_enumerator.h"

#include <numeric>
#include <span>

#include "psc/counting/model_counter.h"
#include "psc/obs/metrics.h"
#include "psc/util/combinatorics.h"
#include "psc/util/string_util.h"

namespace psc {

Result<bool> IdentityWorldEnumerator::ForEachWorldIds(
    const std::function<bool(const std::vector<size_t>&)>& fn,
    const limits::Budget& budget) const {
  SignatureCounter counter(instance_);
  // The walk stops at the first shape past the bound, so a refused
  // enumeration stores only the shapes up to it.
  PSC_ASSIGN_OR_RETURN(const ShapeTable shapes,
                       counter.FeasibleShapeTable(budget, kMaxWorlds));
  if (shapes.total() > BigInt(kMaxWorlds)) {
    return Status::ResourceExhausted(
        StrCat("exact enumeration visits at most ", kMaxWorlds,
               " worlds; poss(S) has more"));
  }

  const auto& groups = instance_->groups();
  std::vector<std::vector<int64_t>> picks(groups.size());
  std::vector<size_t> members;
  for (size_t shape = 0; shape < shapes.num_shapes(); ++shape) {
    // Odometer of per-group k-subsets, the last group fastest.
    const std::span<const int64_t> counts = shapes.counts(shape);
    for (size_t g = 0; g < groups.size(); ++g) {
      picks[g].resize(static_cast<size_t>(counts[g]));
      std::iota(picks[g].begin(), picks[g].end(), int64_t{0});
    }
    while (true) {
      if (!budget.Charge()) return budget.ToStatus();
      PSC_OBS_COUNTER_INC("counting.worlds_enumerated");
      members.clear();
      for (size_t g = 0; g < groups.size(); ++g) {
        for (const int64_t pick : picks[g]) {
          members.push_back(groups[g].members[static_cast<size_t>(pick)]);
        }
      }
      if (!fn(members)) return false;
      // Each exhausted group wraps to its first subset and carries.
      size_t g = groups.size();
      while (g > 0 && !NextSubsetOfSize(groups[g - 1].size, &picks[g - 1])) {
        --g;
      }
      if (g == 0) break;  // every group wrapped: the shape is done
    }
  }
  return true;
}

Result<bool> IdentityWorldEnumerator::ForEachWorld(
    const std::function<bool(const Database&)>& fn,
    const limits::Budget& budget) const {
  return ForEachWorldIds(
      [&](const std::vector<size_t>& members) {
        return fn(instance_->World(members));
      },
      budget);
}

}  // namespace psc
