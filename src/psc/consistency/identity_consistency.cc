#include "psc/consistency/identity_consistency.h"

#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/combinatorics.h"

namespace psc {

Result<IdentityConsistencyReport> CheckIdentityConsistency(
    const SourceCollection& collection, const limits::Budget& budget) {
  PSC_OBS_SPAN("consistency.identity_check");
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::CreateOverExtensions(collection));
  BinomialTable binomials;
  SignatureCounter counter(&instance, &binomials);
  IdentityConsistencyReport report;
  PSC_ASSIGN_OR_RETURN(
      const std::optional<WorldShape> shape,
      counter.FirstFeasibleShape(&report.visited_shapes, budget));
  PSC_OBS_COUNTER_ADD("consistency.nodes_expanded", report.visited_shapes);
  if (!shape.has_value()) {
    report.consistent = false;
    return report;
  }
  report.consistent = true;
  // Materialize a witness: the first members of each group, in universe
  // (first-seen) order.
  Database witness;
  const auto& groups = instance.groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int64_t j = 0; j < shape->counts[g]; ++j) {
      const size_t member = groups[g].members[static_cast<size_t>(j)];
      witness.AddFact(instance.relation(), instance.universe()[member]);
    }
  }
  report.witness = std::move(witness);
  return report;
}

}  // namespace psc
