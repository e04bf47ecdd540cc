#ifndef PSC_COUNTING_MODEL_COUNTER_H_
#define PSC_COUNTING_MODEL_COUNTER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "psc/counting/identity_instance.h"
#include "psc/limits/budget.h"
#include "psc/util/bigint.h"
#include "psc/util/result.h"

namespace psc {

namespace exec {
class ThreadPool;
}  // namespace exec

/// \brief The feasible shapes of one `SignatureCounter::FeasibleShapeTable`
/// walk, in lexicographic order of their count vectors (group 0 most
/// significant). A shape's weight is its number of concrete worlds,
/// ∏_g C(n_g, k_g) over its counts k_g.
///
/// The table keeps running weight totals in the number type `Count` sums
/// in: `unsigned __int128` for universes of at most
/// `SignatureCounter::kMax128BitUniverseFacts` facts, `BigInt` otherwise.
/// Its accessors hide which one.
class ShapeTable {
 public:
  size_t num_shapes() const {
    return cumulative_128_.empty() ? cumulative_.size()
                                   : cumulative_128_.size();
  }
  /// Shape i's count per group, valid while the table lives.
  std::span<const int64_t> counts(size_t i) const {
    return std::span<const int64_t>(counts_).subspan(i * num_groups_,
                                                     num_groups_);
  }
  /// Shape i's weight ∏_g C(n_g, k_g).
  BigInt weight(size_t i) const;
  /// The sum of the weights, |poss(S)| over the instance's universe.
  BigInt total() const;

  /// \brief The index of a shape drawn with probability proportional to
  /// its weight: the first whose running total exceeds a uniformly random
  /// target below the total. Both number types draw the target with the
  /// engine calls of `BigInt::RandomBelow` (`BigInt::RandomBelow128`), so
  /// they pick the same shape. Requires at least one shape.
  size_t Draw(std::mt19937_64& engine) const;

 private:
  friend class SignatureCounter;

  size_t num_groups_ = 0;
  /// Shape i's counts are counts_[i·G, (i+1)·G) over the G groups.
  std::vector<int64_t> counts_;
  /// Σ_{j ≤ i} weight_j per shape i; the one not in use stays empty.
  std::vector<unsigned __int128> cumulative_128_;
  std::vector<BigInt> cumulative_;
};

/// \brief The result of an exact count of poss(S).
struct CountingOutcome {
  /// N_sol(Γ) = |poss(S)| over the instance's universe.
  BigInt world_count;
  /// Per group g: the number of possible worlds containing any designated
  /// tuple of group g — i.e. N_sol(Γ[x_p/1]) for every p in group g.
  /// confidence(t_p) = worlds_containing[group(p)] / world_count.
  std::vector<BigInt> worlds_containing;
  /// Number of feasible count vectors (shapes).
  uint64_t feasible_shapes = 0;
  /// Number of count vectors that pass every soundness test — the vectors
  /// the search reaches (pruning metric).
  uint64_t visited_shapes = 0;
};

/// \brief Exact model counter for the Section 5.1 linear system Γ, using
/// signature-group symmetry.
///
/// Instead of the paper's "generate all possible global databases (in
/// exponential time)", the counter enumerates per-group count vectors
/// (k_g)_g — feasibility depends only on counts — and weighs each feasible
/// vector by ∏ C(n_g, k_g) concrete worlds. For the marked counts it uses
/// C(n_g−1, k_g−1) = C(n_g, k_g)·k_g/n_g, accumulating Σ weight·k_g and
/// dividing by n_g at the end (exact: each term is divisible).
///
/// The search visits only count vectors that pass every soundness test
/// |D ∩ vᵢ| ≥ tᵢ = ⌈sᵢkᵢ⌉: each group's count loop starts at the least
/// count that can still reach every tᵢ. Both constraints are linear in the
/// last group's count, so for a fixed prefix its feasible counts form one
/// interval, computed in O(sources) and handled as one *run*.
class SignatureCounter {
 public:
  /// `instance` must outlive the counter. Each walk that weighs shapes
  /// builds its own binomial rows, one per distinct group size.
  explicit SignatureCounter(const IdentityInstance* instance);

  /// Largest universe `Count` sums in 128-bit arithmetic. Every sum it
  /// forms is at most Σ_D |D| = N·2^(N−1) over the N-fact universe, and
  /// N·2^N < 2^128 holds exactly for N ≤ 121 (121·2^121 < 2^7·2^121, but
  /// 122·2^122 ≥ 2^6·2^122). Larger universes sum in `BigInt`.
  static constexpr size_t kMax128BitUniverseFacts = 121;

  /// \brief Counts all worlds and per-group containment counts.
  ///
  /// Fails with `budget.ToStatus()` (DeadlineExceeded /
  /// ResourceExhausted) when the cooperative budget trips. The search
  /// charges one budget node per node it expands: an internal count-vector
  /// node, or one last-group run.
  ///
  /// Each run adds Σ_k C(n, k) and Σ_k k·C(n, k) over its interval from
  /// per-row prefix sums. Universes of at most `kMax128BitUniverseFacts`
  /// facts sum in `unsigned __int128`, larger ones in `BigInt`; the
  /// outcome is the same either way.
  ///
  /// With a multi-worker `pool` the search is sharded on the first group's
  /// count; per-shard sums are exact and merged in shard order, so the
  /// outcome is bit-identical to the sequential run for any worker count.
  /// A tripped budget also cancels shards still queued on the pool.
  Result<CountingOutcome> Count(exec::ThreadPool* pool = nullptr,
                                const limits::Budget& budget =
                                    limits::Budget());

  /// Most feasible shapes `FeasibleShapeTable` holds in memory: each one
  /// stores a count vector and a running weight total.
  static constexpr uint64_t kMaxStoredShapes = uint64_t{1} << 22;

  /// \brief Enumerates the feasible shapes themselves (for world
  /// sampling, world enumeration and consensus), by the walk `Count` runs
  /// shape by shape. Fails with ResourceExhausted if more than
  /// `kMaxStoredShapes` are feasible, and with `budget.ToStatus()` when
  /// the budget trips (charged as `Count` charges). Adds the walk's
  /// visited and feasible shapes to `counting.shapes_visited` and
  /// `counting.feasible_shapes`, as `Count` does.
  ///
  /// With `max_total`, the walk stops at the first shape whose running
  /// total passes it: the table then ends at that shape, and a `total()`
  /// above `max_total` tells the caller that poss(S) is larger.
  Result<ShapeTable> FeasibleShapeTable(
      const limits::Budget& budget = limits::Budget(),
      std::optional<uint64_t> max_total = std::nullopt);

  /// \brief Stops at the first feasible shape — a constructive consistency
  /// check — and returns its counts, weighing nothing. nullopt when
  /// poss(S) is empty over the instance's universe. `visited` receives the
  /// number of count vectors passing every soundness test, up to and
  /// including the shape returned.
  Result<std::optional<std::vector<int64_t>>> FirstFeasibleShape(
      uint64_t* visited = nullptr,
      const limits::Budget& budget = limits::Budget());

 private:
  /// suffix_max_[i][g] = max tuples sources i can still gain from groups ≥ g.
  void BuildSuffixCapacity();

  const IdentityInstance* instance_;
  std::vector<std::vector<int64_t>> suffix_max_;
};

}  // namespace psc

#endif  // PSC_COUNTING_MODEL_COUNTER_H_
