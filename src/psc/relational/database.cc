#include "psc/relational/database.h"

#include "psc/obs/metrics.h"
#include "psc/relational/eval_index.h"
#include "psc/util/string_util.h"

namespace psc {

size_t DatabaseDelta::size() const {
  size_t total = 0;
  for (const auto& [name, tuples] : inserts) total += tuples.size();
  for (const auto& [name, tuples] : retracts) total += tuples.size();
  return total;
}

std::vector<std::string> DeltaSummary::DirtyRelations() const {
  std::vector<std::string> dirty;
  for (const auto& [name, change] : relations) {
    if (change.inserted + change.retracted > 0) dirty.push_back(name);
  }
  return dirty;  // map iteration: already sorted
}

std::string DeltaSummary::ToString() const {
  return StrCat("+", inserted, " -", retracted, " noop=", noops, " over ",
                DirtyRelations().size(), " relation(s)");
}

Database::~Database() { delete index_cache_.load(std::memory_order_acquire); }

Database::Database(const Database& o)
    : relations_(o.relations_),
      generation_(o.generation_),
      relation_generations_(o.relation_generations_) {}

Database::Database(Database&& o) noexcept
    : relations_(std::move(o.relations_)),
      generation_(o.generation_),
      relation_generations_(std::move(o.relation_generations_)) {
  // std::set nodes survive a map move, so the cache's tuple pointers stay
  // valid and the cache can move along with the data.
  index_cache_.store(o.index_cache_.exchange(nullptr, std::memory_order_acq_rel),
                     std::memory_order_release);
}

Database& Database::operator=(const Database& o) {
  if (this == &o) return *this;
  relations_ = o.relations_;
  generation_ = o.generation_;
  relation_generations_ = o.relation_generations_;
  delete index_cache_.exchange(nullptr, std::memory_order_acq_rel);
  return *this;
}

Database& Database::operator=(Database&& o) noexcept {
  if (this == &o) return *this;
  relations_ = std::move(o.relations_);
  generation_ = o.generation_;
  relation_generations_ = std::move(o.relation_generations_);
  delete index_cache_.exchange(
      o.index_cache_.exchange(nullptr, std::memory_order_acq_rel),
      std::memory_order_acq_rel);
  return *this;
}

eval::IndexCache& Database::index_cache() const {
  eval::IndexCache* cache = index_cache_.load(std::memory_order_acquire);
  if (cache == nullptr) {
    auto* fresh = new eval::IndexCache();
    if (index_cache_.compare_exchange_strong(cache, fresh,
                                             std::memory_order_acq_rel)) {
      cache = fresh;
    } else {
      delete fresh;  // another thread won the race
    }
  }
  return *cache;
}

void Database::InvalidateIndexCache() const {
  if (auto* cache = index_cache_.load(std::memory_order_acquire)) {
    cache->Clear();
  }
}

uint64_t Database::relation_generation(const std::string& relation) const {
  const auto it = relation_generations_.find(relation);
  return it == relation_generations_.end() ? 0 : it->second;
}

std::pair<uint64_t, uint64_t> Database::BumpRelation(
    const std::string& relation) {
  uint64_t& slot = relation_generations_[relation];
  const uint64_t old_generation = slot;
  slot = ++generation_;
  return {old_generation, slot};
}

Database Database::OfRelation(const std::string& relation, Relation tuples) {
  Database database;
  if (tuples.empty()) return database;
  database.relations_.emplace(relation, std::move(tuples));
  database.BumpRelation(relation);
  return database;
}

bool Database::AddFact(const Fact& fact) {
  return AddFact(fact.relation(), fact.tuple());
}

bool Database::AddFact(const std::string& relation, Tuple tuple) {
  Relation& extension = relations_[relation];
  const auto [node, inserted] = extension.insert(std::move(tuple));
  if (!inserted) return false;
  const auto [old_generation, new_generation] = BumpRelation(relation);
  if (auto* cache = index_cache_.load(std::memory_order_acquire)) {
    cache->ApplyRelationDelta(relation, {&*node}, {}, extension.size(),
                              old_generation, new_generation);
  }
  return true;
}

bool Database::RemoveFact(const Fact& fact) {
  const auto it = relations_.find(fact.relation());
  if (it == relations_.end()) return false;
  const auto node = it->second.find(fact.tuple());
  if (node == it->second.end()) return false;
  const auto [old_generation, new_generation] = BumpRelation(fact.relation());
  if (auto* cache = index_cache_.load(std::memory_order_acquire)) {
    // The node is unlinked from cached buckets while still alive.
    cache->ApplyRelationDelta(fact.relation(), {}, {&*node},
                              it->second.size() - 1, old_generation,
                              new_generation);
  }
  it->second.erase(node);
  if (it->second.empty()) relations_.erase(it);
  return true;
}

DeltaSummary Database::ApplyDelta(const DatabaseDelta& delta) {
  DeltaSummary summary;
  std::set<std::string> touched;
  for (const auto& [name, tuples] : delta.inserts) touched.insert(name);
  for (const auto& [name, tuples] : delta.retracts) touched.insert(name);
  auto* cache = index_cache_.load(std::memory_order_acquire);

  for (const std::string& name : touched) {
    RelationChange change;
    const auto ins_it = delta.inserts.find(name);
    const Relation* ins = ins_it == delta.inserts.end() ? nullptr : &ins_it->second;
    const auto ret_it = delta.retracts.find(name);
    const Relation* ret = ret_it == delta.retracts.end() ? nullptr : &ret_it->second;
    auto rel_it = relations_.find(name);

    // Resolve effective retracts (present, and not re-asserted by an
    // insert of the same tuple — insert wins) while their nodes are alive.
    std::vector<Relation::iterator> to_erase;
    if (ret != nullptr) {
      for (const Tuple& tuple : *ret) {
        if (ins != nullptr && ins->count(tuple) > 0) {
          ++change.noops;
          continue;
        }
        if (rel_it == relations_.end()) {
          ++change.noops;
          continue;
        }
        const auto node = rel_it->second.find(tuple);
        if (node == rel_it->second.end()) {
          ++change.noops;
        } else {
          to_erase.push_back(node);
        }
      }
    }

    // Land the inserts, collecting node addresses for index maintenance.
    std::vector<const Tuple*> inserted_nodes;
    if (ins != nullptr && !ins->empty()) {
      if (rel_it == relations_.end()) {
        rel_it = relations_.emplace(name, Relation{}).first;
      }
      for (const Tuple& tuple : *ins) {
        const auto [node, inserted] = rel_it->second.insert(tuple);
        if (inserted) {
          inserted_nodes.push_back(&*node);
        } else {
          ++change.noops;
        }
      }
    }

    change.inserted = inserted_nodes.size();
    change.retracted = to_erase.size();
    if (change.inserted + change.retracted > 0) {
      const auto [old_generation, new_generation] = BumpRelation(name);
      if (cache != nullptr) {
        std::vector<const Tuple*> retracted_nodes;
        retracted_nodes.reserve(to_erase.size());
        for (const auto& node : to_erase) retracted_nodes.push_back(&*node);
        cache->ApplyRelationDelta(name, inserted_nodes, retracted_nodes,
                                  rel_it->second.size() - to_erase.size(),
                                  old_generation, new_generation);
      }
      for (const auto& node : to_erase) rel_it->second.erase(node);
      if (rel_it->second.empty()) relations_.erase(rel_it);
    }

    summary.inserted += change.inserted;
    summary.retracted += change.retracted;
    summary.noops += change.noops;
    summary.relations.emplace(name, change);
  }

  PSC_OBS_COUNTER_ADD("delta.ops_applied", summary.inserted + summary.retracted);
  PSC_OBS_COUNTER_ADD("delta.noops", summary.noops);
  return summary;
}

bool Database::Contains(const Fact& fact) const {
  return Contains(fact.relation(), fact.tuple());
}

bool Database::Contains(const std::string& relation,
                        const Tuple& tuple) const {
  auto it = relations_.find(relation);
  return it != relations_.end() && it->second.count(tuple) > 0;
}

const Relation& Database::GetRelation(const std::string& relation) const {
  static const Relation kEmpty;
  auto it = relations_.find(relation);
  return it == relations_.end() ? kEmpty : it->second;
}

size_t Database::size() const {
  size_t total = 0;
  for (const auto& [name, tuples] : relations_) total += tuples.size();
  return total;
}

std::vector<Fact> Database::AllFacts() const {
  std::vector<Fact> facts;
  facts.reserve(size());
  for (const auto& [name, tuples] : relations_) {
    for (const Tuple& tuple : tuples) facts.emplace_back(name, tuple);
  }
  return facts;
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, tuples] : relations_) {
    if (!tuples.empty()) names.push_back(name);
  }
  return names;
}

void Database::UnionWith(const Database& other) {
  auto* cache = index_cache_.load(std::memory_order_acquire);
  for (const auto& [name, tuples] : other.relations_) {
    Relation& mine = relations_[name];
    std::vector<const Tuple*> added;
    for (const Tuple& tuple : tuples) {
      const auto [node, inserted] = mine.insert(tuple);
      if (inserted) added.push_back(&*node);
    }
    // A subset union leaves the generation alone so cached indexes (and
    // anything else keyed on generations) stay warm.
    if (added.empty()) continue;
    const auto [old_generation, new_generation] = BumpRelation(name);
    if (cache != nullptr) {
      cache->ApplyRelationDelta(name, added, {}, mine.size(), old_generation,
                                new_generation);
    }
  }
}

bool Database::IsSubsetOf(const Database& other) const {
  for (const auto& [name, tuples] : relations_) {
    const Relation& theirs = other.GetRelation(name);
    for (const Tuple& tuple : tuples) {
      if (theirs.count(tuple) == 0) return false;
    }
  }
  return true;
}

bool Database::operator==(const Database& o) const {
  return relations_ == o.relations_;
}

bool Database::operator<(const Database& o) const {
  return relations_ < o.relations_;
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const Fact& fact : AllFacts()) lines.push_back(fact.ToString());
  return Join(lines, "\n");
}

Result<std::vector<Fact>> EnumerateFactUniverse(
    const Schema& schema, const std::vector<Value>& domain,
    size_t max_facts) {
  std::vector<Fact> universe;
  for (const std::string& name : schema.RelationNames()) {
    PSC_ASSIGN_OR_RETURN(const size_t arity, schema.Arity(name));
    // Count |dom|^arity with overflow protection.
    size_t count = 1;
    for (size_t i = 0; i < arity; ++i) {
      if (domain.empty() || count > max_facts / domain.size()) {
        return Status::ResourceExhausted(
            StrCat("fact universe for ", name, "/", arity, " over a domain of ",
                   domain.size(), " constants exceeds ", max_facts));
      }
      count *= domain.size();
    }
    if (universe.size() + count > max_facts) {
      return Status::ResourceExhausted(
          StrCat("fact universe exceeds ", max_facts, " facts"));
    }
    // Odometer over the tuple positions.
    std::vector<size_t> odo(arity, 0);
    while (true) {
      Tuple tuple;
      tuple.reserve(arity);
      for (size_t i = 0; i < arity; ++i) tuple.push_back(domain[odo[i]]);
      universe.emplace_back(name, std::move(tuple));
      bool wrapped = true;
      size_t pos = arity;
      while (pos > 0) {
        --pos;
        if (++odo[pos] < domain.size()) {
          wrapped = false;
          break;
        }
        odo[pos] = 0;
      }
      if (wrapped) break;  // covers arity == 0 as well
    }
  }
  return universe;
}

}  // namespace psc
