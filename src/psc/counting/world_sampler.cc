#include "psc/counting/world_sampler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "psc/obs/metrics.h"
#include "psc/util/combinatorics.h"

namespace psc {

WorldSampler::WorldSampler(const IdentityInstance* instance,
                           std::vector<WorldShape> shapes,
                           std::vector<BigInt> cumulative, BigInt total)
    : instance_(instance),
      shapes_(std::move(shapes)),
      cumulative_(std::move(cumulative)),
      total_(std::move(total)) {
  min_world_size_ = std::numeric_limits<size_t>::max();
  for (const WorldShape& shape : shapes_) {
    int64_t facts = 0;
    for (const int64_t count : shape.counts) facts += count;
    min_world_size_ = std::min(min_world_size_, static_cast<size_t>(facts));
  }
}

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

void WorldSampler::Draw(Rng* rng, std::vector<size_t>* members,
                        DrawBuffer* buffer) const {
  PSC_CHECK(rng != nullptr && members != nullptr && buffer != nullptr);
  PSC_OBS_COUNTER_INC("counting.sampler_draws");
  const BigInt target = BigInt::RandomBelow(total_, rng->engine());
  // First shape whose cumulative weight exceeds `target`.
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(),
                                   target);
  PSC_CHECK(it != cumulative_.end());
  const WorldShape& shape =
      shapes_[static_cast<size_t>(it - cumulative_.begin())];

  members->clear();
  std::vector<char>& marked = buffer->marked_;
  std::vector<size_t>& picks = buffer->picks_;
  const auto& groups = instance_->groups();
  for (size_t g = 0; g < groups.size(); ++g) {
    const IdentityInstance::Group& group = groups[g];
    const int64_t n = group.size;
    const int64_t k = shape.counts[g];
    if (k == 0) continue;
    // Floyd over the smaller side: a uniform subset of the kept members,
    // or of the left-out ones, whose complement is then uniform too.
    const bool keep = k <= n - k;
    const int64_t side = keep ? k : n - k;
    if (marked.size() < static_cast<size_t>(n)) {
      marked.resize(static_cast<size_t>(n), 0);
    }
    picks.clear();
    for (int64_t j = n - side; j < n; ++j) {
      const int64_t t = rng->UniformInt(0, j);
      const size_t pick =
          static_cast<size_t>(marked[static_cast<size_t>(t)] == 0 ? t : j);
      marked[pick] = 1;
      picks.push_back(pick);
    }
    if (keep) {
      for (const size_t pick : picks) {
        members->push_back(group.members[pick]);
        marked[pick] = 0;
      }
      continue;
    }
    for (size_t i = 0; i < group.members.size(); ++i) {
      if (marked[i] == 0) members->push_back(group.members[i]);
    }
    for (const size_t pick : picks) marked[pick] = 0;
  }
}

Database WorldSampler::Sample(Rng* rng) const {
  std::vector<size_t> members;
  DrawBuffer buffer;
  Draw(rng, &members, &buffer);
  return instance_->World(members);
}

std::vector<size_t> WorldSampler::DrawableFacts() const {
  const auto& groups = instance_->groups();
  std::vector<size_t> facts;
  for (size_t g = 0; g < groups.size(); ++g) {
    const bool drawn = std::any_of(
        shapes_.begin(), shapes_.end(),
        [g](const WorldShape& shape) { return shape.counts[g] > 0; });
    if (drawn) {
      facts.insert(facts.end(), groups[g].members.begin(),
                   groups[g].members.end());
    }
  }
  return facts;
}

}  // namespace psc
