#include "psc/counting/confidence.h"

#include "psc/obs/trace.h"
#include "psc/relational/value.h"
#include "psc/util/string_util.h"

namespace psc {

Result<double> ConfidenceTable::ConfidenceOf(const Tuple& tuple) const {
  for (const TupleConfidence& entry : entries) {
    if (entry.tuple == tuple) return entry.confidence;
  }
  return Status::NotFound(
      StrCat("tuple ", TupleToString(tuple), " not in the fact universe"));
}

std::vector<Tuple> ConfidenceTable::CertainFacts() const {
  std::vector<Tuple> certain;
  for (const TupleConfidence& entry : entries) {
    if (entry.numerator == world_count) certain.push_back(entry.tuple);
  }
  return certain;
}

std::vector<Tuple> ConfidenceTable::PossibleFacts() const {
  std::vector<Tuple> possible;
  for (const TupleConfidence& entry : entries) {
    if (!entry.numerator.IsZero()) possible.push_back(entry.tuple);
  }
  return possible;
}

Result<ConfidenceTable> ComputeBaseFactConfidences(
    const IdentityInstance& instance, exec::ThreadPool* pool,
    const limits::Budget& budget) {
  PSC_OBS_SPAN("counting.base_confidences");
  SignatureCounter counter(&instance);
  PSC_ASSIGN_OR_RETURN(const CountingOutcome outcome,
                       counter.Count(pool, budget));
  if (outcome.world_count.IsZero()) {
    return Status::Inconsistent(
        "poss(S) is empty: tuple confidence is undefined for inconsistent "
        "source collections");
  }
  ConfidenceTable table;
  table.world_count = outcome.world_count;
  table.entries.reserve(instance.universe().size());
  for (size_t idx = 0; idx < instance.universe().size(); ++idx) {
    TupleConfidence entry;
    entry.tuple = instance.universe()[idx];
    entry.numerator = outcome.worlds_containing[instance.GroupIndexAt(idx)];
    entry.confidence =
        BigInt::RatioToDouble(entry.numerator, table.world_count);
    table.entries.push_back(std::move(entry));
  }
  return table;
}

}  // namespace psc
