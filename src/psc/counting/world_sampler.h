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

  /// Scratch space that a run of draws on one thread reuses.
  class DrawBuffer {
   private:
    friend class WorldSampler;
    /// One mark per member of the largest group drawn from so far; all
    /// clear between draws.
    std::vector<char> marked_;
    /// Positions in the group that a draw marked.
    std::vector<size_t> picks_;
  };

  /// \brief Exact-uniform draw from poss(S): replaces `*members` with the
  /// world's facts as indices into the instance's universe.
  ///
  /// Each group draws from its smaller side: Floyd's algorithm picks the
  /// k_g members the world keeps, or the n_g − k_g it leaves out when
  /// those are fewer, so a world holding most of its universe costs about
  /// one RNG call per fact it lacks.
  void Draw(Rng* rng, std::vector<size_t>* members,
            DrawBuffer* buffer) const;

  /// The same draw as `Draw` (same RNG use), materialized as a database
  /// over the instance's relation.
  Database Sample(Rng* rng) const;

  /// The facts some feasible shape draws from: every member of each group
  /// that at least one shape takes a fact of, in group order. Every draw
  /// lies inside them.
  std::vector<size_t> DrawableFacts() const;
  /// The fewest facts a possible world holds: the minimum over the
  /// feasible shapes of Σ_g k_g.
  size_t min_world_size() const { return min_world_size_; }

  /// |poss(S)| over the instance's universe.
  const BigInt& world_count() const { return total_; }
  size_t num_shapes() const { return shapes_.size(); }

 private:
  WorldSampler(const IdentityInstance* instance,
               std::vector<WorldShape> shapes,
               std::vector<BigInt> cumulative, BigInt total);

  const IdentityInstance* instance_;
  std::vector<WorldShape> shapes_;
  /// cumulative_[i] = Σ_{j ≤ i} shapes_[j].weight.
  std::vector<BigInt> cumulative_;
  BigInt total_;
  size_t min_world_size_ = 0;
};

}  // namespace psc

#endif  // PSC_COUNTING_WORLD_SAMPLER_H_
