#include "psc/source/source_collection.h"

#include <algorithm>
#include <set>

#include "psc/obs/metrics.h"
#include "psc/source/measures.h"
#include "psc/util/string_util.h"

namespace psc {

bool CollectionDelta::empty() const {
  for (const auto& [name, delta] : sources) {
    if (!delta.empty()) return false;
  }
  return true;
}

size_t CollectionDelta::size() const {
  size_t total = 0;
  for (const auto& [name, delta] : sources) {
    total += delta.inserts.size() + delta.retracts.size();
  }
  return total;
}

std::vector<std::string> CollectionDeltaSummary::DirtySources() const {
  std::vector<std::string> dirty;
  for (const auto& [name, change] : sources) {
    if (change.inserted + change.retracted > 0) dirty.push_back(name);
  }
  return dirty;  // map iteration: already sorted
}

std::string CollectionDeltaSummary::ToString() const {
  return StrCat("+", inserted, " -", retracted, " noop=", noops, " over ",
                DirtySources().size(), " source(s)");
}

Result<SourceCollection> SourceCollection::Create(
    std::vector<SourceDescriptor> sources) {
  std::set<std::string> names;
  Schema schema;
  for (const SourceDescriptor& source : sources) {
    if (source.name().empty()) {
      return Status::InvalidArgument("source with empty name");
    }
    if (!names.insert(source.name()).second) {
      return Status::InvalidArgument(
          StrCat("duplicate source name '", source.name(), "'"));
    }
    PSC_RETURN_NOT_OK(source.view().InferSchema(&schema));
  }
  return SourceCollection(std::move(sources), std::move(schema));
}

Result<size_t> SourceCollection::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].name() == name) return i;
  }
  return Status::NotFound(StrCat("no source named '", name, "'"));
}

Result<bool> SourceCollection::IsPossibleWorld(const Database& db) const {
  for (const SourceDescriptor& source : sources_) {
    PSC_ASSIGN_OR_RETURN(const bool satisfied, SatisfiesBounds(source, db));
    if (!satisfied) return false;
  }
  return true;
}

size_t SourceCollection::TotalExtensionSize() const {
  size_t total = 0;
  for (const SourceDescriptor& source : sources_) {
    total += source.extension_size();
  }
  return total;
}

size_t SourceCollection::WitnessSizeBound() const {
  size_t max_body = 0;
  for (const SourceDescriptor& source : sources_) {
    max_body = std::max(max_body, source.view().RelationalBodySize());
  }
  return max_body * TotalExtensionSize();
}

bool SourceCollection::AllIdentityViews(std::string* relation) const {
  std::string common;
  for (const SourceDescriptor& source : sources_) {
    if (!source.view().IsIdentity()) return false;
    const std::string& name =
        source.view().relational_body()[0].predicate();
    if (common.empty()) {
      common = name;
    } else if (common != name) {
      return false;
    }
  }
  if (relation != nullptr) *relation = common;
  return !sources_.empty();
}

std::vector<Value> SourceCollection::MentionedConstants() const {
  std::set<Value> constants;
  for (const SourceDescriptor& source : sources_) {
    for (const Tuple& tuple : source.extension()) {
      constants.insert(tuple.begin(), tuple.end());
    }
    for (const Atom& atom : source.view().body()) {
      for (const Term& term : atom.terms()) {
        if (term.is_constant()) constants.insert(term.constant());
      }
    }
    for (const Term& term : source.view().head().terms()) {
      if (term.is_constant()) constants.insert(term.constant());
    }
  }
  return std::vector<Value>(constants.begin(), constants.end());
}

Result<CollectionDeltaSummary> SourceCollection::ApplyDelta(
    const CollectionDelta& delta) {
  // Validate everything before mutating anything, so a failed call leaves
  // the collection exactly as it was.
  std::vector<std::pair<size_t, const CollectionDelta::SourceDelta*>> resolved;
  resolved.reserve(delta.sources.size());
  for (const auto& [name, source_delta] : delta.sources) {
    PSC_ASSIGN_OR_RETURN(const size_t index, IndexOf(name));
    const size_t head_arity = sources_[index].view().head().arity();
    for (const Tuple& tuple : source_delta.inserts) {
      if (tuple.size() != head_arity) {
        return Status::InvalidArgument(
            StrCat("source '", name, "': delta tuple ", TupleToString(tuple),
                   " has arity ", tuple.size(), ", head expects ", head_arity));
      }
    }
    resolved.emplace_back(index, &source_delta);
  }

  CollectionDeltaSummary summary;
  for (const auto& [index, source_delta] : resolved) {
    PSC_ASSIGN_OR_RETURN(
        const RelationChange change,
        sources_[index].ApplyExtensionDelta(source_delta->inserts,
                                            source_delta->retracts));
    if (change.inserted + change.retracted > 0) {
      if (source_generations_.size() < sources_.size()) {
        source_generations_.resize(sources_.size(), 0);
      }
      source_generations_[index] = ++generation_;
    }
    summary.inserted += change.inserted;
    summary.retracted += change.retracted;
    summary.noops += change.noops;
    summary.sources.emplace(sources_[index].name(), change);
  }
  PSC_OBS_COUNTER_ADD("delta.ops_applied", summary.inserted + summary.retracted);
  PSC_OBS_COUNTER_ADD("delta.noops", summary.noops);
  return summary;
}

std::string SourceCollection::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(sources_.size());
  for (const SourceDescriptor& source : sources_) {
    parts.push_back(source.ToString());
  }
  return Join(parts, "\n");
}

}  // namespace psc
