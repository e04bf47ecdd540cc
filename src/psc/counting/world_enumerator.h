#ifndef PSC_COUNTING_WORLD_ENUMERATOR_H_
#define PSC_COUNTING_WORLD_ENUMERATOR_H_

#include <functional>
#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/limits/budget.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Enumerates every concrete possible world of an identity-view
/// instance, by expanding each feasible world shape into all its
/// ∏ C(n_g, k_g) subset choices.
///
/// Exponential in general; `max_worlds` bounds the number of worlds
/// visited. Deterministic order (shapes in DFS order, subsets
/// lexicographic).
class IdentityWorldEnumerator {
 public:
  /// `instance` must outlive the enumerator.
  explicit IdentityWorldEnumerator(const IdentityInstance* instance)
      : instance_(instance) {}

  /// \brief Calls `fn` for every world D ∈ poss(S) over the instance's
  /// universe, given as the indices of its facts in the instance's
  /// universe; `fn` returns false to stop early. Result is false iff
  /// stopped early. Fails with ResourceExhausted past `max_worlds` worlds
  /// or `max_shapes` shapes, and with `budget.ToStatus()` when the
  /// cooperative budget trips (one node charged per world produced).
  Result<bool> ForEachWorldIds(
      const std::function<bool(const std::vector<size_t>&)>& fn,
      uint64_t max_worlds = uint64_t{1} << 22,
      uint64_t max_shapes = uint64_t{1} << 22,
      const limits::Budget& budget = limits::Budget()) const;

  /// ForEachWorldIds with every world materialized as a database over the
  /// instance's relation.
  Result<bool> ForEachWorld(const std::function<bool(const Database&)>& fn,
                            uint64_t max_worlds = uint64_t{1} << 22,
                            uint64_t max_shapes = uint64_t{1} << 22,
                            const limits::Budget& budget =
                                limits::Budget()) const;

 private:
  const IdentityInstance* instance_;
};

}  // namespace psc

#endif  // PSC_COUNTING_WORLD_ENUMERATOR_H_
