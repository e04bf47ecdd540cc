#ifndef PSC_COUNTING_WORLD_SAMPLER_H_
#define PSC_COUNTING_WORLD_SAMPLER_H_

#include <cstdint>
#include <span>
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
/// Built from the feasible world shapes (`ShapeTable`). A shape is drawn
/// with probability proportional to its exact weight ∏_g C(n_g, k_g)
/// (`ShapeTable::Draw`), then within each group a uniformly random
/// k_g-subset of the group's tuples is chosen. The result is an exactly
/// uniform draw from poss(S) — the
/// substrate for Monte-Carlo estimation of query confidences (experiments
/// E5/E8) when exact per-query computation is infeasible.
class WorldSampler {
 public:
  /// Enumerates feasible shapes (see `SignatureCounter::FeasibleShapeTable`;
  /// `budget` is charged one node per count-vector tree node). Fails with
  /// Inconsistent when poss(S) is empty, and with `budget.ToStatus()` when
  /// the budget trips.
  static Result<WorldSampler> Create(const IdentityInstance* instance,
                                     const limits::Budget& budget =
                                         limits::Budget());

  /// \brief One draw, recorded as each group's Floyd picks, with the
  /// scratch space a run of draws on one thread reuses.
  class DrawnWorld {
   public:
    /// The picks of one group the world takes facts from: positions in
    /// the group's `members`. With `kept` they are the members the world
    /// holds; otherwise they are the members it leaves out, and it holds
    /// every other member of the group.
    struct GroupPicks {
      size_t group = 0;
      bool kept = false;
      /// The picks are picks_[begin, end).
      size_t begin = 0;
      size_t end = 0;
    };

    /// The groups the world takes a fact from, in group order.
    const std::vector<GroupPicks>& groups() const { return groups_; }
    std::span<const uint32_t> picks(const GroupPicks& group) const {
      return std::span<const uint32_t>(picks_).subspan(
          group.begin, group.end - group.begin);
    }

   private:
    friend class WorldSampler;
    std::vector<GroupPicks> groups_;
    std::vector<uint32_t> picks_;
    /// One mark per member of the largest group drawn from so far; all
    /// clear between calls. Listing a world's members marks its left-out
    /// picks too.
    mutable std::vector<char> marked_;
  };

  /// \brief Exact-uniform draw from poss(S), recorded in `*world`.
  ///
  /// Each group draws from its smaller side: Floyd's algorithm picks the
  /// k_g members the world keeps, or the n_g − k_g it leaves out when
  /// those are fewer, so a draw costs about one RNG call per pick, never
  /// the world's size.
  void Draw(Rng* rng, DrawnWorld* world) const;

  /// \brief Replaces `*members` with the facts of a drawn world as indices
  /// into the instance's universe: per group, the kept picks in draw order,
  /// or every member but the left-out picks in group order.
  void ListMembers(const DrawnWorld& world,
                   std::vector<size_t>* members) const;

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
  size_t num_shapes() const { return table_.num_shapes(); }

 private:
  WorldSampler(const IdentityInstance* instance, ShapeTable table);

  const IdentityInstance* instance_;
  ShapeTable table_;
  BigInt total_;
  size_t min_world_size_ = 0;
};

}  // namespace psc

#endif  // PSC_COUNTING_WORLD_SAMPLER_H_
