#include "psc/consistency/identity_consistency.h"

#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"

namespace psc {

Result<IdentityConsistencyReport> CheckIdentityConsistency(
    const SourceCollection& collection, const limits::Budget& budget) {
  PSC_OBS_SPAN("consistency.identity_check");
  PSC_ASSIGN_OR_RETURN(IdentityInstance instance,
                       IdentityInstance::CreateOverExtensions(collection));
  SignatureCounter counter(&instance);
  IdentityConsistencyReport report;
  PSC_ASSIGN_OR_RETURN(
      const std::optional<std::vector<int64_t>> counts,
      counter.FirstFeasibleShape(&report.visited_shapes, budget));
  PSC_OBS_COUNTER_ADD("consistency.nodes_expanded", report.visited_shapes);
  if (!counts.has_value()) {
    report.consistent = false;
    return report;
  }
  report.consistent = true;
  // The witness: the first members of each group, in universe
  // (first-seen) order.
  std::vector<size_t> members;
  const auto& groups = instance.groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto first = groups[g].members.begin();
    members.insert(members.end(), first, first + (*counts)[g]);
  }
  report.witness = std::move(instance).World(members);
  return report;
}

}  // namespace psc
