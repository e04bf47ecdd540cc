#include "psc/counting/identity_instance.h"

#include <algorithm>
#include <compare>
#include <numeric>
#include <utility>

#include "psc/relational/database.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

using Int128 = __int128;

Result<std::string> CommonIdentityRelation(const SourceCollection& collection) {
  if (collection.size() == 0) {
    return Status::InvalidArgument("empty source collection");
  }
  if (collection.size() > 63) {
    return Status::InvalidArgument(
        StrCat("identity-instance compilation supports at most 63 sources, "
               "got ",
               collection.size()));
  }
  std::string relation;
  if (!collection.AllIdentityViews(&relation)) {
    return Status::InvalidArgument(
        "not all views are identities over a common relation");
  }
  return relation;
}

/// InvalidArgument naming the first tuple whose arity is not `arity`.
Status CheckArity(const std::vector<Tuple>& universe, size_t arity) {
  for (const Tuple& tuple : universe) {
    if (tuple.size() != arity) {
      return Status::InvalidArgument(
          StrCat("universe tuple ", TupleToString(tuple), " has arity ",
                 tuple.size(), ", expected ", arity));
    }
  }
  return Status::OK();
}

/// The least rank r ≥ `from` whose tuple `universe[sorted[r]]` is not
/// below `tuple`, or `sorted.size()`. Probes `from` + 0, 1, 2, 4, … and
/// binary-searches the last gap, so walking an extension of k tuples up a
/// sorted universe of N costs O(k·log(N/k)) comparisons.
size_t LowerBoundFrom(const std::vector<Tuple>& universe,
                      const std::vector<size_t>& sorted, size_t from,
                      const Tuple& tuple) {
  size_t lo = from;
  size_t hi = from;
  size_t step = 1;
  while (hi < sorted.size() && universe[sorted[hi]] < tuple) {
    lo = hi + 1;
    hi = from + step;
    step *= 2;
  }
  hi = std::min(hi, sorted.size());
  const auto below = [&](size_t index) { return universe[index] < tuple; };
  return static_cast<size_t>(
      std::partition_point(sorted.begin() + static_cast<ptrdiff_t>(lo),
                           sorted.begin() + static_cast<ptrdiff_t>(hi),
                           below) -
      sorted.begin());
}

}  // namespace

Result<IdentityInstance> IdentityInstance::Begin(
    const SourceCollection& collection) {
  PSC_ASSIGN_OR_RETURN(const std::string relation,
                       CommonIdentityRelation(collection));
  IdentityInstance instance;
  instance.relation_ = relation;
  PSC_ASSIGN_OR_RETURN(instance.arity_,
                       collection.schema().Arity(relation));
  for (const SourceDescriptor& source : collection.sources()) {
    SourceConstraint constraint;
    constraint.name = source.name();
    constraint.extension_size =
        static_cast<int64_t>(source.extension_size());
    constraint.min_sound = source.MinSoundFacts();
    constraint.completeness = source.completeness_bound();
    constraint.soundness = source.soundness_bound();
    instance.constraints_.push_back(std::move(constraint));
  }
  return instance;
}

void IdentityInstance::BuildGroups(const std::vector<uint64_t>& signatures) {
  // Groups in increasing signature order; members keep universe order.
  std::vector<uint64_t> distinct = signatures;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  groups_.resize(distinct.size());
  for (size_t g = 0; g < distinct.size(); ++g) {
    groups_[g].signature = distinct[g];
  }
  group_of_.resize(universe_.size());
  for (size_t index = 0; index < universe_.size(); ++index) {
    const size_t g = static_cast<size_t>(
        std::lower_bound(distinct.begin(), distinct.end(), signatures[index]) -
        distinct.begin());
    group_of_[index] = g;
    groups_[g].members.push_back(index);
  }
  for (Group& group : groups_) {
    group.size = static_cast<int64_t>(group.members.size());
  }
}

Result<IdentityInstance> IdentityInstance::CreateWithUniverse(
    const SourceCollection& collection, std::vector<Tuple> universe) {
  PSC_ASSIGN_OR_RETURN(IdentityInstance instance, Begin(collection));
  PSC_RETURN_NOT_OK(CheckArity(universe, instance.arity_));

  // A stable sort of positions by tuple puts each tuple's first occurrence
  // first among its repeats; only that one is kept.
  std::vector<size_t> order(universe.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return universe[a] < universe[b];
  });
  constexpr size_t kRepeat = ~size_t{0};
  std::vector<size_t> position(universe.size(), kRepeat);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (rank == 0 || universe[order[rank]] != universe[order[rank - 1]]) {
      position[order[rank]] = 0;
    }
  }
  for (size_t i = 0; i < universe.size(); ++i) {
    if (position[i] == kRepeat) continue;
    position[i] = instance.universe_.size();
    instance.universe_.push_back(std::move(universe[i]));
  }
  for (const size_t i : order) {
    if (position[i] != kRepeat) instance.sorted_.push_back(position[i]);
  }

  // Signatures: walk each sorted extension up the sorted universe.
  const std::vector<Tuple>& tuples = instance.universe_;
  const std::vector<size_t>& sorted = instance.sorted_;
  std::vector<uint64_t> signatures(tuples.size(), 0);
  for (size_t i = 0; i < collection.size(); ++i) {
    const SourceDescriptor& source = collection.source(i);
    size_t rank = 0;
    for (const Tuple& tuple : source.extension()) {
      rank = LowerBoundFrom(tuples, sorted, rank, tuple);
      if (rank == sorted.size() || tuples[sorted[rank]] != tuple) {
        return Status::InvalidArgument(
            StrCat("extension tuple ", TupleToString(tuple), " of source '",
                   source.name(), "' missing from the universe"));
      }
      signatures[sorted[rank]] |= uint64_t{1} << i;
      ++rank;
    }
  }
  instance.BuildGroups(signatures);
  return instance;
}

Result<IdentityInstance> IdentityInstance::Create(
    const SourceCollection& collection, const std::vector<Value>& domain) {
  PSC_ASSIGN_OR_RETURN(const std::string relation,
                       CommonIdentityRelation(collection));
  PSC_ASSIGN_OR_RETURN(const std::vector<Fact> facts,
                       EnumerateFactUniverse(collection.schema(), domain,
                                             kMaxUniverseFacts));
  std::vector<Tuple> universe;
  universe.reserve(facts.size());
  for (const Fact& fact : facts) {
    if (fact.relation() == relation) universe.push_back(fact.tuple());
  }
  // Verify coverage of extensions (constants outside `domain` would
  // otherwise vanish silently).
  return CreateWithUniverse(collection, std::move(universe));
}

Result<IdentityInstance> IdentityInstance::CreateOverExtensions(
    const SourceCollection& collection) {
  PSC_ASSIGN_OR_RETURN(IdentityInstance instance, Begin(collection));

  // Merge the sorted extensions: each step takes the least tuple among the
  // sources' next tuples, ORs in the bit of every source holding it and
  // advances those sources. Scanning the heads in source order finds the
  // first source holding it. A fleet has few sources whose extensions
  // overlap heavily, and there one scan of the heads per distinct tuple
  // takes fewer comparisons than a heap.
  struct Head {
    Relation::const_iterator next;
    Relation::const_iterator end;
    size_t source;
  };
  struct Merged {
    const Tuple* tuple;
    uint64_t signature;
    size_t first_source;
  };
  std::vector<Head> heads;
  for (size_t i = 0; i < collection.size(); ++i) {
    const Relation& extension = collection.source(i).extension();
    if (!extension.empty()) {
      heads.push_back({extension.begin(), extension.end(), i});
    }
  }
  std::vector<Merged> merged;
  while (!heads.empty()) {
    Merged least{&*heads[0].next, uint64_t{1} << heads[0].source,
                 heads[0].source};
    for (size_t h = 1; h < heads.size(); ++h) {
      const std::strong_ordering order = *heads[h].next <=> *least.tuple;
      if (order < 0) {
        least = {&*heads[h].next, uint64_t{1} << heads[h].source,
                 heads[h].source};
      } else if (order == 0) {
        least.signature |= uint64_t{1} << heads[h].source;
      }
    }
    merged.push_back(least);
    for (Head& head : heads) {
      if (((least.signature >> head.source) & 1) != 0) ++head.next;
    }
    std::erase_if(heads,
                  [](const Head& head) { return head.next == head.end; });
  }

  // First-seen order is a stable sort of `merged` (increasing tuples) by
  // first source: a counting sort, which also yields each universe
  // position's rank in tuple order.
  std::vector<size_t> start(collection.size() + 1, 0);
  for (const Merged& entry : merged) ++start[entry.first_source + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  instance.universe_.resize(merged.size());
  instance.sorted_.resize(merged.size());
  std::vector<uint64_t> signatures(merged.size());
  for (size_t rank = 0; rank < merged.size(); ++rank) {
    const size_t index = start[merged[rank].first_source]++;
    instance.universe_[index] = *merged[rank].tuple;
    instance.sorted_[rank] = index;
    signatures[index] = merged[rank].signature;
  }
  PSC_RETURN_NOT_OK(CheckArity(instance.universe_, instance.arity_));
  instance.BuildGroups(signatures);
  return instance;
}

Result<size_t> IdentityInstance::GroupIndexOf(const Tuple& tuple) const {
  const size_t rank = LowerBoundFrom(universe_, sorted_, 0, tuple);
  if (rank == sorted_.size() || universe_[sorted_[rank]] != tuple) {
    return Status::NotFound(
        StrCat("tuple ", TupleToString(tuple), " not in the fact universe"));
  }
  return group_of_[sorted_[rank]];
}

namespace {

/// IdentityInstance::World over `universe`, whose tuples it moves out
/// when the vector is mutable and copies when it is const.
template <typename Universe>
Database WorldOver(const std::string& relation, Universe& universe,
                   const std::vector<size_t>& sorted,
                   const std::vector<size_t>& members) {
  std::vector<char> in_world(universe.size(), 0);
  for (const size_t member : members) in_world[member] = 1;
  Relation tuples;
  for (const size_t position : sorted) {
    if (in_world[position] != 0) {
      tuples.emplace_hint(tuples.end(), std::move(universe[position]));
    }
  }
  return Database::OfRelation(relation, std::move(tuples));
}

}  // namespace

Database IdentityInstance::World(const std::vector<size_t>& members) const& {
  return WorldOver(relation_, universe_, sorted_, members);
}

Database IdentityInstance::World(const std::vector<size_t>& members) && {
  return WorldOver(relation_, universe_, sorted_, members);
}

bool IdentityInstance::CheckCounts(const std::vector<int64_t>& counts) const {
  PSC_CHECK_MSG(counts.size() == groups_.size(),
                "CheckCounts: count vector size mismatch");
  int64_t total = 0;
  for (size_t g = 0; g < counts.size(); ++g) {
    PSC_CHECK_MSG(counts[g] >= 0 && counts[g] <= groups_[g].size,
                  "CheckCounts: count out of range");
    total += counts[g];
  }
  for (size_t i = 0; i < constraints_.size(); ++i) {
    const uint64_t bit = uint64_t{1} << i;
    int64_t in_extension = 0;
    for (size_t g = 0; g < counts.size(); ++g) {
      if ((groups_[g].signature & bit) != 0) in_extension += counts[g];
    }
    const SourceConstraint& constraint = constraints_[i];
    if (in_extension < constraint.min_sound) return false;
    // completeness: in_extension / total ≥ cᵢ  ⟺  cᵢ.num·total ≤ cᵢ.den·in.
    // total == 0 makes the constraint vacuous (φᵢ(D) = ∅).
    const Int128 lhs =
        Int128(constraint.completeness.numerator()) * total;
    const Int128 rhs =
        Int128(constraint.completeness.denominator()) * in_extension;
    if (lhs > rhs) return false;
  }
  return true;
}

}  // namespace psc
