#include "psc/consistency/possible_worlds.h"

#include "psc/obs/metrics.h"

namespace psc {

BruteForceWorldEnumerator::BruteForceWorldEnumerator(
    const SourceCollection* collection, std::vector<Value> domain,
    limits::Budget budget)
    : collection_(collection),
      domain_(std::move(domain)),
      budget_(std::move(budget)) {
  PSC_CHECK(collection_ != nullptr);
}

Result<std::vector<Fact>> BruteForceWorldEnumerator::Universe() const {
  return EnumerateFactUniverse(collection_->schema(), domain_,
                               kMaxUniverseFacts);
}

Result<bool> BruteForceWorldEnumerator::Scan(
    const std::function<bool(uint64_t, const Database&)>& fn) const {
  PSC_ASSIGN_OR_RETURN(const std::vector<Fact> universe, Universe());
  const uint64_t limit = uint64_t{1} << universe.size();
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if (!budget_.Charge()) return budget_.ToStatus();
    Database db;
    for (size_t j = 0; j < universe.size(); ++j) {
      if ((mask >> j) & 1) db.AddFact(universe[j]);
    }
    PSC_OBS_COUNTER_INC("brute_force.worlds_checked");
    PSC_ASSIGN_OR_RETURN(const bool possible,
                         collection_->IsPossibleWorld(db));
    if (possible) PSC_OBS_COUNTER_INC("brute_force.possible_worlds");
    if (possible && !fn(mask, db)) return false;
  }
  return true;
}

Result<bool> BruteForceWorldEnumerator::ForEachPossibleWorld(
    const std::function<bool(const Database&)>& fn) const {
  return Scan([&](uint64_t, const Database& db) { return fn(db); });
}

Result<bool> BruteForceWorldEnumerator::ForEachPossibleWorldIds(
    const std::function<bool(const std::vector<size_t>&)>& fn) const {
  std::vector<size_t> ids;
  return Scan([&](uint64_t mask, const Database&) {
    ids.clear();
    for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
      ids.push_back(static_cast<size_t>(__builtin_ctzll(rest)));
    }
    return fn(ids);
  });
}

Result<std::vector<Database>> BruteForceWorldEnumerator::CollectPossibleWorlds()
    const {
  std::vector<Database> worlds;
  PSC_RETURN_NOT_OK(ForEachPossibleWorld([&](const Database& db) {
                      worlds.push_back(db);
                      return true;
                    }).status());
  return worlds;
}

Result<uint64_t> BruteForceWorldEnumerator::CountPossibleWorlds() const {
  uint64_t count = 0;
  PSC_RETURN_NOT_OK(ForEachPossibleWorld([&](const Database&) {
                      ++count;
                      return true;
                    }).status());
  return count;
}

}  // namespace psc
