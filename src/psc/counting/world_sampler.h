#ifndef PSC_COUNTING_WORLD_SAMPLER_H_
#define PSC_COUNTING_WORLD_SAMPLER_H_

#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/limits/budget.h"
#include "psc/relational/database.h"
#include "psc/util/bigint.h"
#include "psc/util/random.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Exact uniform sampler over poss(S) for identity-view instances.
///
/// Built from the enumerated feasible world shapes: a shape is drawn with
/// probability proportional to its exact BigInt weight (via rejection-free
/// prefix search on a uniformly random BigInt), then within each group a
/// uniformly random k_g-subset of the group's tuples is chosen. The result
/// is an exactly uniform draw from poss(S) — the substrate for Monte-Carlo
/// estimation of query confidences (experiments E5/E8) when exact
/// per-query computation is infeasible.
class WorldSampler {
 public:
  /// Enumerates feasible shapes (see `SignatureCounter::FeasibleShapes`;
  /// `budget` is charged one node per count-vector tree node) and
  /// prepares cumulative weights. Fails with Inconsistent when poss(S) is
  /// empty, and with `budget.ToStatus()` when the budget trips.
  static Result<WorldSampler> Create(const IdentityInstance* instance,
                                     const limits::Budget& budget =
                                         limits::Budget());

  /// \brief Exact-uniform draw from poss(S): replaces `*members` with the
  /// world's facts as indices into the instance's universe.
  void Draw(Rng* rng, std::vector<size_t>* members) const;

  /// The same draw as `Draw` (same RNG use), materialized as a database
  /// over the instance's relation.
  Database Sample(Rng* rng) const;

  /// |poss(S)| over the instance's universe.
  const BigInt& world_count() const { return total_; }
  size_t num_shapes() const { return shapes_.size(); }

 private:
  WorldSampler(const IdentityInstance* instance,
               std::vector<WorldShape> shapes,
               std::vector<BigInt> cumulative, BigInt total)
      : instance_(instance),
        shapes_(std::move(shapes)),
        cumulative_(std::move(cumulative)),
        total_(std::move(total)) {}

  const IdentityInstance* instance_;
  std::vector<WorldShape> shapes_;
  /// cumulative_[i] = Σ_{j ≤ i} shapes_[j].weight.
  std::vector<BigInt> cumulative_;
  BigInt total_;
};

}  // namespace psc

#endif  // PSC_COUNTING_WORLD_SAMPLER_H_
