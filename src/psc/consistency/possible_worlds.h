#ifndef PSC_CONSISTENCY_POSSIBLE_WORLDS_H_
#define PSC_CONSISTENCY_POSSIBLE_WORLDS_H_

#include <functional>
#include <vector>

#include "psc/limits/budget.h"
#include "psc/relational/database.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Ground-truth enumeration of poss(S) over an explicit finite
/// domain, by filtering all 2^N subsets of the fact universe.
///
/// Exponential by design (Theorem 3.2 says we cannot do better in the worst
/// case); this is the oracle every optimized component is validated
/// against. N is capped at `max_universe_bits`.
class BruteForceWorldEnumerator {
 public:
  struct Options {
    /// Refuse universes with more than this many facts (2^N subsets).
    size_t max_universe_bits = 26;
    /// Cooperative deadline / node budget; one node is charged per subset
    /// mask checked. A tripped budget fails the enumeration with
    /// `budget.ToStatus()`.
    limits::Budget budget;
  };

  BruteForceWorldEnumerator(const SourceCollection* collection,
                            std::vector<Value> domain);
  BruteForceWorldEnumerator(const SourceCollection* collection,
                            std::vector<Value> domain, Options options);

  /// \brief Calls `fn` for every database D ⊆ universe with D ∈ poss(S),
  /// in deterministic order. `fn` returns false to stop early.
  /// Returns false iff stopped early.
  Result<bool> ForEachPossibleWorld(
      const std::function<bool(const Database&)>& fn) const;

  /// ForEachPossibleWorld with each world given as the ascending indices
  /// of its facts in `Universe()`.
  Result<bool> ForEachPossibleWorldIds(
      const std::function<bool(const std::vector<size_t>&)>& fn) const;

  /// Materializes every possible world (fails beyond `max_worlds`).
  Result<std::vector<Database>> CollectPossibleWorlds(
      size_t max_worlds = 1u << 22) const;

  /// |poss(S)| over this universe.
  Result<uint64_t> CountPossibleWorlds() const;

  /// The fact universe (deterministic order).
  Result<std::vector<Fact>> Universe() const;

 private:
  /// The subset scan behind both visitors: `fn` sees each possible world
  /// as its subset mask (bit j = fact j of the universe) and as the
  /// database checked against the sources.
  Result<bool> Scan(
      const std::function<bool(uint64_t, const Database&)>& fn) const;

  const SourceCollection* collection_;
  std::vector<Value> domain_;
  Options options_;
};

}  // namespace psc

#endif  // PSC_CONSISTENCY_POSSIBLE_WORLDS_H_
