#include "psc/counting/world_sampler.h"

#include <algorithm>

#include "psc/obs/metrics.h"
#include "psc/util/combinatorics.h"

namespace psc {

Result<WorldSampler> WorldSampler::Create(const IdentityInstance* instance,
                                          const limits::Budget& budget) {
  PSC_CHECK(instance != nullptr);
  BinomialTable binomials;
  SignatureCounter counter(instance, &binomials);
  PSC_ASSIGN_OR_RETURN(std::vector<WorldShape> shapes,
                       counter.FeasibleShapes(budget));
  std::vector<BigInt> cumulative;
  cumulative.reserve(shapes.size());
  BigInt total;
  for (const WorldShape& shape : shapes) {
    total += shape.weight;
    cumulative.push_back(total);
  }
  if (total.IsZero()) {
    return Status::Inconsistent(
        "poss(S) is empty: cannot sample possible worlds");
  }
  return WorldSampler(instance, std::move(shapes), std::move(cumulative),
                      std::move(total));
}

void WorldSampler::Draw(Rng* rng, std::vector<size_t>* members) const {
  PSC_CHECK(rng != nullptr && members != nullptr);
  PSC_OBS_COUNTER_INC("counting.sampler_draws");
  const BigInt target = BigInt::RandomBelow(total_, rng->engine());
  // First shape whose cumulative weight exceeds `target`.
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                   target);
  PSC_CHECK(it != cumulative_.end());
  const WorldShape& shape =
      shapes_[static_cast<size_t>(it - cumulative_.begin())];

  members->clear();
  const auto& groups = instance_->groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    const int64_t k = shape.counts[g];
    if (k == 0) continue;
    const std::vector<int64_t> picks =
        rng->SampleWithoutReplacement(groups[g].size, k);
    for (const int64_t pick : picks) {
      members->push_back(groups[g].members[static_cast<size_t>(pick)]);
    }
  }
}

Database WorldSampler::Sample(Rng* rng) const {
  std::vector<size_t> members;
  Draw(rng, &members);
  Database world;
  for (const size_t member : members) {
    world.AddFact(instance_->relation(), instance_->universe()[member]);
  }
  return world;
}

}  // namespace psc
