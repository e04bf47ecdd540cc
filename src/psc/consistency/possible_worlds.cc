#include "psc/consistency/possible_worlds.h"

#include "psc/obs/metrics.h"
#include "psc/util/string_util.h"

namespace psc {

BruteForceWorldEnumerator::BruteForceWorldEnumerator(
    const SourceCollection* collection, std::vector<Value> domain)
    : BruteForceWorldEnumerator(collection, std::move(domain), Options()) {}

BruteForceWorldEnumerator::BruteForceWorldEnumerator(
    const SourceCollection* collection, std::vector<Value> domain,
    Options options)
    : collection_(collection), domain_(std::move(domain)), options_(options) {
  PSC_CHECK(collection_ != nullptr);
}

Result<std::vector<Fact>> BruteForceWorldEnumerator::Universe() const {
  // The subset enumeration is 2^N, so the universe itself must stay below
  // max_universe_bits facts.
  PSC_ASSIGN_OR_RETURN(std::vector<Fact> universe,
                       EnumerateFactUniverse(collection_->schema(), domain_,
                                             options_.max_universe_bits));
  return universe;
}

Result<bool> BruteForceWorldEnumerator::Scan(
    const std::function<bool(uint64_t, const Database&)>& fn) const {
  PSC_ASSIGN_OR_RETURN(const std::vector<Fact> universe, Universe());
  const uint64_t limit = uint64_t{1} << universe.size();
  const limits::Budget& budget = options_.budget;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if (!budget.Charge()) return budget.ToStatus();
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

Result<std::vector<Database>> BruteForceWorldEnumerator::CollectPossibleWorlds(
    size_t max_worlds) const {
  // The materialization cap is a node budget over collected worlds — the
  // same cooperative mechanism callers use for deadlines, so a tripped
  // budget and a tripped cap surface through one code path.
  const limits::Budget cap = limits::Budget::WithNodeBudget(max_worlds);
  std::vector<Database> worlds;
  PSC_ASSIGN_OR_RETURN(const bool completed,
                       ForEachPossibleWorld([&](const Database& db) {
                         if (!cap.Charge()) return false;
                         worlds.push_back(db);
                         return true;
                       }));
  if (!completed && cap.reason() != limits::StopReason::kNone) {
    return Status::ResourceExhausted(
        StrCat("more than ", max_worlds, " possible worlds"));
  }
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
