#include "psc/counting/identity_instance.h"

#include <set>

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

}  // namespace

Result<IdentityInstance> IdentityInstance::CreateWithUniverse(
    const SourceCollection& collection, std::vector<Tuple> universe) {
  PSC_ASSIGN_OR_RETURN(const std::string relation,
                       CommonIdentityRelation(collection));
  IdentityInstance instance;
  instance.relation_ = relation;
  PSC_ASSIGN_OR_RETURN(instance.arity_,
                       collection.schema().Arity(relation));

  // Deduplicate the universe while preserving first-seen order.
  std::set<Tuple> seen;
  for (Tuple& tuple : universe) {
    if (tuple.size() != instance.arity_) {
      return Status::InvalidArgument(
          StrCat("universe tuple ", TupleToString(tuple), " has arity ",
                 tuple.size(), ", expected ", instance.arity_));
    }
    if (seen.insert(tuple).second) {
      instance.universe_.push_back(std::move(tuple));
    }
  }

  // Signatures.
  std::map<Tuple, uint64_t> signature_of;
  for (const Tuple& tuple : instance.universe_) signature_of[tuple] = 0;
  for (size_t i = 0; i < collection.size(); ++i) {
    const SourceDescriptor& source = collection.source(i);
    SourceConstraint constraint;
    constraint.name = source.name();
    constraint.extension_size =
        static_cast<int64_t>(source.extension_size());
    constraint.min_sound = source.MinSoundFacts();
    constraint.completeness = source.completeness_bound();
    constraint.soundness = source.soundness_bound();
    instance.constraints_.push_back(std::move(constraint));
    for (const Tuple& tuple : source.extension()) {
      auto it = signature_of.find(tuple);
      if (it == signature_of.end()) {
        return Status::InvalidArgument(
            StrCat("extension tuple ", TupleToString(tuple), " of source '",
                   source.name(), "' missing from the universe"));
      }
      it->second |= uint64_t{1} << i;
    }
  }

  // Group by signature, in increasing signature order.
  std::map<uint64_t, Group> group_map;
  for (size_t idx = 0; idx < instance.universe_.size(); ++idx) {
    const uint64_t signature = signature_of[instance.universe_[idx]];
    Group& group = group_map[signature];
    group.signature = signature;
    group.members.push_back(idx);
  }
  for (auto& [signature, group] : group_map) {
    group.size = static_cast<int64_t>(group.members.size());
    const size_t group_index = instance.groups_.size();
    for (const size_t member : group.members) {
      instance.group_of_tuple_[instance.universe_[member]] = group_index;
    }
    instance.groups_.push_back(std::move(group));
  }
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
  std::vector<Tuple> universe;
  std::set<Tuple> seen;
  for (const SourceDescriptor& source : collection.sources()) {
    for (const Tuple& tuple : source.extension()) {
      if (seen.insert(tuple).second) universe.push_back(tuple);
    }
  }
  return CreateWithUniverse(collection, std::move(universe));
}

Result<size_t> IdentityInstance::GroupIndexOf(const Tuple& tuple) const {
  auto it = group_of_tuple_.find(tuple);
  if (it == group_of_tuple_.end()) {
    return Status::NotFound(
        StrCat("tuple ", TupleToString(tuple), " not in the fact universe"));
  }
  return it->second;
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
