#include "oracle/identity_instance_oracle.h"

#include <set>
#include <string>
#include <utility>

#include "psc/relational/database.h"
#include "psc/util/string_util.h"

namespace psc::oracle {

namespace {

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

Result<size_t> IdentityInstanceModel::GroupIndexOf(const Tuple& tuple) const {
  auto it = group_of_tuple.find(tuple);
  if (it == group_of_tuple.end()) {
    return Status::NotFound(
        StrCat("tuple ", TupleToString(tuple), " not in the fact universe"));
  }
  return it->second;
}

Result<IdentityInstanceModel> CreateIdentityInstanceWithUniverse(
    const SourceCollection& collection, std::vector<Tuple> universe) {
  PSC_ASSIGN_OR_RETURN(const std::string relation,
                       CommonIdentityRelation(collection));
  IdentityInstanceModel model;
  PSC_ASSIGN_OR_RETURN(const size_t arity,
                       collection.schema().Arity(relation));

  // Deduplicate the universe while preserving first-seen order.
  std::set<Tuple> seen;
  for (Tuple& tuple : universe) {
    if (tuple.size() != arity) {
      return Status::InvalidArgument(
          StrCat("universe tuple ", TupleToString(tuple), " has arity ",
                 tuple.size(), ", expected ", arity));
    }
    if (seen.insert(tuple).second) {
      model.universe.push_back(std::move(tuple));
    }
  }

  // Signatures.
  std::map<Tuple, uint64_t> signature_of;
  for (const Tuple& tuple : model.universe) signature_of[tuple] = 0;
  for (size_t i = 0; i < collection.size(); ++i) {
    const SourceDescriptor& source = collection.source(i);
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
  std::map<uint64_t, IdentityInstance::Group> group_map;
  for (size_t idx = 0; idx < model.universe.size(); ++idx) {
    const uint64_t signature = signature_of[model.universe[idx]];
    IdentityInstance::Group& group = group_map[signature];
    group.signature = signature;
    group.members.push_back(idx);
  }
  for (auto& [signature, group] : group_map) {
    group.size = static_cast<int64_t>(group.members.size());
    const size_t group_index = model.groups.size();
    for (const size_t member : group.members) {
      model.group_of_tuple[model.universe[member]] = group_index;
    }
    model.groups.push_back(std::move(group));
  }
  return model;
}

Result<IdentityInstanceModel> CreateIdentityInstance(
    const SourceCollection& collection, const std::vector<Value>& domain) {
  PSC_ASSIGN_OR_RETURN(const std::string relation,
                       CommonIdentityRelation(collection));
  PSC_ASSIGN_OR_RETURN(
      const std::vector<Fact> facts,
      EnumerateFactUniverse(collection.schema(), domain,
                            IdentityInstance::kMaxUniverseFacts));
  std::vector<Tuple> universe;
  for (const Fact& fact : facts) {
    if (fact.relation() == relation) universe.push_back(fact.tuple());
  }
  return CreateIdentityInstanceWithUniverse(collection, std::move(universe));
}

Result<IdentityInstanceModel> CreateIdentityInstanceOverExtensions(
    const SourceCollection& collection) {
  std::vector<Tuple> universe;
  std::set<Tuple> seen;
  for (const SourceDescriptor& source : collection.sources()) {
    for (const Tuple& tuple : source.extension()) {
      if (seen.insert(tuple).second) universe.push_back(tuple);
    }
  }
  return CreateIdentityInstanceWithUniverse(collection, std::move(universe));
}

}  // namespace psc::oracle
