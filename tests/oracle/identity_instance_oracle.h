#ifndef PSC_TESTS_ORACLE_IDENTITY_INSTANCE_ORACLE_H_
#define PSC_TESTS_ORACLE_IDENTITY_INSTANCE_ORACLE_H_

/// \file
/// Reference identity-instance compile, linked only by tests.
///
/// The tuple-keyed builder straight from the contract of
/// `IdentityInstance` (psc/counting/identity_instance.h): a set removes
/// repeated universe tuples in first-seen order, a map from tuple to
/// signature collects each extension's bit, and a map from signature to
/// group orders the groups. It shares no merge, sort or search with the
/// production compile, so a disagreement between the two points at those.

#include <map>
#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/relational/value.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc::oracle {

/// What a compile decides: the universe order, the groups and the group of
/// each universe tuple.
struct IdentityInstanceModel {
  std::vector<Tuple> universe;
  std::vector<IdentityInstance::Group> groups;
  std::map<Tuple, size_t> group_of_tuple;

  /// Same contract as `IdentityInstance::GroupIndexOf`.
  Result<size_t> GroupIndexOf(const Tuple& tuple) const;
};

/// Same contracts as `IdentityInstance::Create`, `CreateOverExtensions`
/// and `CreateWithUniverse`, errors included.
Result<IdentityInstanceModel> CreateIdentityInstance(
    const SourceCollection& collection, const std::vector<Value>& domain);
Result<IdentityInstanceModel> CreateIdentityInstanceOverExtensions(
    const SourceCollection& collection);
Result<IdentityInstanceModel> CreateIdentityInstanceWithUniverse(
    const SourceCollection& collection, std::vector<Tuple> universe);

}  // namespace psc::oracle

#endif  // PSC_TESTS_ORACLE_IDENTITY_INSTANCE_ORACLE_H_
