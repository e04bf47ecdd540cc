#include "psc/counting/world_sampler.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"

namespace psc {

WorldSampler::WorldSampler(const IdentityInstance* instance, ShapeTable table)
    : instance_(instance), table_(std::move(table)), total_(table_.total()) {
  min_world_size_ = std::numeric_limits<size_t>::max();
  for (size_t shape = 0; shape < num_shapes(); ++shape) {
    const std::span<const int64_t> counts = table_.counts(shape);
    const int64_t facts = std::accumulate(counts.begin(), counts.end(),
                                          int64_t{0});
    min_world_size_ = std::min(min_world_size_, static_cast<size_t>(facts));
  }
}

Result<WorldSampler> WorldSampler::Create(const IdentityInstance* instance,
                                          const limits::Budget& budget) {
  PSC_CHECK(instance != nullptr);
  PSC_OBS_SPAN("counting.sampler_build");
  SignatureCounter counter(instance);
  PSC_ASSIGN_OR_RETURN(ShapeTable table, counter.FeasibleShapeTable(budget));
  WorldSampler sampler(instance, std::move(table));
  if (sampler.total_.IsZero()) {
    return Status::Inconsistent(
        "poss(S) is empty: cannot sample possible worlds");
  }
  return sampler;
}

void WorldSampler::Draw(Rng* rng, DrawnWorld* world) const {
  PSC_CHECK(rng != nullptr && world != nullptr);
  PSC_OBS_COUNTER_INC("counting.sampler_draws");
  const auto& groups = instance_->groups();
  const std::span<const int64_t> counts =
      table_.counts(table_.Draw(rng->engine()));

  world->groups_.clear();
  std::vector<uint32_t>& picks = world->picks_;
  std::vector<char>& marked = world->marked_;
  picks.clear();
  for (size_t g = 0; g < groups.size(); ++g) {
    const int64_t n = groups[g].size;
    const int64_t k = counts[g];
    if (k == 0) continue;
    // Floyd over the smaller side: a uniform subset of the kept members,
    // or of the left-out ones, whose complement is then uniform too.
    const bool keep = k <= n - k;
    const int64_t side = keep ? k : n - k;
    if (marked.size() < static_cast<size_t>(n)) {
      marked.resize(static_cast<size_t>(n), 0);
    }
    const size_t begin = picks.size();
    for (int64_t j = n - side; j < n; ++j) {
      const int64_t t = rng->UniformInt(0, j);
      const uint32_t pick =
          static_cast<uint32_t>(marked[static_cast<size_t>(t)] == 0 ? t : j);
      marked[pick] = 1;
      picks.push_back(pick);
    }
    for (size_t p = begin; p < picks.size(); ++p) marked[picks[p]] = 0;
    world->groups_.push_back({g, keep, begin, picks.size()});
  }
}

void WorldSampler::ListMembers(const DrawnWorld& world,
                               std::vector<size_t>* members) const {
  PSC_CHECK(members != nullptr);
  members->clear();
  std::vector<char>& marked = world.marked_;
  for (const DrawnWorld::GroupPicks& drawn : world.groups()) {
    const std::vector<size_t>& group = instance_->groups()[drawn.group].members;
    const std::span<const uint32_t> picks = world.picks(drawn);
    if (drawn.kept) {
      for (const uint32_t pick : picks) members->push_back(group[pick]);
      continue;
    }
    for (const uint32_t pick : picks) marked[pick] = 1;
    for (size_t i = 0; i < group.size(); ++i) {
      if (marked[i] == 0) members->push_back(group[i]);
    }
    for (const uint32_t pick : picks) marked[pick] = 0;
  }
}

Database WorldSampler::Sample(Rng* rng) const {
  DrawnWorld world;
  Draw(rng, &world);
  std::vector<size_t> members;
  ListMembers(world, &members);
  return instance_->World(members);
}

std::vector<size_t> WorldSampler::DrawableFacts() const {
  const auto& groups = instance_->groups();
  std::vector<size_t> facts;
  for (size_t g = 0; g < groups.size(); ++g) {
    bool drawn = false;
    for (size_t shape = 0; shape < num_shapes() && !drawn; ++shape) {
      drawn = table_.counts(shape)[g] > 0;
    }
    if (drawn) {
      facts.insert(facts.end(), groups[g].members.begin(),
                   groups[g].members.end());
    }
  }
  return facts;
}

}  // namespace psc
