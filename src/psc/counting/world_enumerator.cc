#include "psc/counting/world_enumerator.h"

#include "psc/counting/model_counter.h"
#include "psc/obs/metrics.h"
#include "psc/util/combinatorics.h"
#include "psc/util/string_util.h"

namespace psc {

Result<bool> IdentityWorldEnumerator::ForEachWorldIds(
    const std::function<bool(const std::vector<size_t>&)>& fn,
    uint64_t max_worlds, uint64_t max_shapes,
    const limits::Budget& budget) const {
  BinomialTable binomials;
  SignatureCounter counter(instance_, &binomials);
  PSC_ASSIGN_OR_RETURN(const std::vector<WorldShape> shapes,
                       counter.FeasibleShapes(max_shapes, budget));

  const auto& groups = instance_->groups();
  uint64_t produced = 0;
  std::vector<size_t> members;

  for (const WorldShape& shape : shapes) {
    // Odometer of per-group subset selections.
    std::vector<std::vector<int64_t>> picks(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      picks[g].resize(static_cast<size_t>(shape.counts[g]));
      for (size_t j = 0; j < picks[g].size(); ++j) {
        picks[g][j] = static_cast<int64_t>(j);
      }
    }
    while (true) {
      if (++produced > max_worlds) {
        return Status::ResourceExhausted(
            StrCat("world enumeration exceeded ", max_worlds, " worlds"));
      }
      if (!budget.Charge()) return budget.ToStatus();
      PSC_OBS_COUNTER_INC("counting.worlds_enumerated");
      members.clear();
      for (size_t g = 0; g < groups.size(); ++g) {
        for (const int64_t pick : picks[g]) {
          members.push_back(groups[g].members[static_cast<size_t>(pick)]);
        }
      }
      if (!fn(members)) return false;

      // Advance: find the last group whose combination can advance.
      size_t g = groups.size();
      bool advanced = false;
      while (g-- > 0 && !advanced) {
        std::vector<int64_t>& combo = picks[g];
        const int64_t n = groups[g].size;
        const int64_t k = static_cast<int64_t>(combo.size());
        // Next k-combination of {0..n-1} in lexicographic order.
        int64_t i = k - 1;
        while (i >= 0 && combo[static_cast<size_t>(i)] == n - k + i) --i;
        if (i >= 0) {
          ++combo[static_cast<size_t>(i)];
          for (int64_t j = i + 1; j < k; ++j) {
            combo[static_cast<size_t>(j)] = combo[static_cast<size_t>(j - 1)] + 1;
          }
          advanced = true;
          // Reset all later groups to their first combination.
          for (size_t h = g + 1; h < groups.size(); ++h) {
            for (size_t j = 0; j < picks[h].size(); ++j) {
              picks[h][j] = static_cast<int64_t>(j);
            }
          }
        }
      }
      if (!advanced) break;  // this shape is exhausted
    }
  }
  return true;
}

Result<bool> IdentityWorldEnumerator::ForEachWorld(
    const std::function<bool(const Database&)>& fn, uint64_t max_worlds,
    uint64_t max_shapes, const limits::Budget& budget) const {
  return ForEachWorldIds(
      [&](const std::vector<size_t>& members) {
        Database world;
        for (const size_t member : members) {
          world.AddFact(instance_->relation(), instance_->universe()[member]);
        }
        return fn(world);
      },
      max_worlds, max_shapes, budget);
}

}  // namespace psc
