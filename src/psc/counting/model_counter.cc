#include "psc/counting/model_counter.h"

#include <functional>
#include <utility>

#include "psc/exec/parallel.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {

SignatureCounter::SignatureCounter(const IdentityInstance* instance,
                                   BinomialTable* binomials)
    : instance_(instance), binomials_(binomials) {
  PSC_CHECK(instance_ != nullptr && binomials_ != nullptr);
  BuildSuffixCapacity();
}

void SignatureCounter::BuildSuffixCapacity() {
  const auto& groups = instance_->groups();
  const size_t n = instance_->num_sources();
  suffix_max_.assign(n, std::vector<int64_t>(groups.size() + 1, 0));
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    for (size_t g = groups.size(); g-- > 0;) {
      suffix_max_[i][g] = suffix_max_[i][g + 1] +
                          ((groups[g].signature & bit) != 0 ? groups[g].size
                                                            : 0);
    }
  }
}

namespace {

/// Shared DFS over per-group count vectors with soundness pruning.
/// `visit(counts, weight)` is called for every feasible leaf and returns
/// false to stop the whole enumeration.
///
/// The per-depth prune condition partial[i] + suffix_max[i][g] < tᵢ is
/// precomputed once per depth as partial[i] < needᵢ(g) with
/// needᵢ(g) = tᵢ − suffix_max[i][g]; only sources with a positive need can
/// ever prune (partials are non-negative), so each node scans the short
/// per-depth `active_` list instead of all sources.
class ShapeEnumerator {
 public:
  ShapeEnumerator(const IdentityInstance& instance, BinomialTable& binomials,
                  const std::vector<std::vector<int64_t>>& suffix_max,
                  limits::Budget budget)
      : instance_(instance), binomials_(binomials), budget_(std::move(budget)) {
    const size_t depths = instance_.groups().size() + 1;
    active_.resize(depths);
    for (size_t g = 0; g < depths; ++g) {
      for (size_t i = 0; i < instance_.num_sources(); ++i) {
        const int64_t need =
            instance_.constraints()[i].min_sound - suffix_max[i][g];
        if (need > 0) active_[g].emplace_back(i, need);
      }
    }
  }

  /// Returns false iff the visitor requested an early stop.
  Result<bool> Run(const std::function<bool(const std::vector<int64_t>&,
                                            const BigInt&)>& visit) {
    return RunWithFirstGroup(-1, visit);
  }

  /// \brief Runs the DFS with the first group's count pinned to
  /// `first_count` (or unpinned when negative).
  ///
  /// The pinned form enumerates exactly the subtree the unpinned DFS
  /// explores under counts[0] == first_count, which is what makes the
  /// parallel counter's shard union identical to the sequential
  /// enumeration, leaf for leaf.
  Result<bool> RunWithFirstGroup(
      int64_t first_count,
      const std::function<bool(const std::vector<int64_t>&, const BigInt&)>&
          visit) {
    visit_ = &visit;
    counts_.assign(instance_.groups().size(), 0);
    partial_in_extension_.assign(instance_.num_sources(), 0);
    visited_ = 0;
    const BigInt one(1);
    if (first_count < 0) return Recurse(0, one, one);
    // Seed depth 0: counts_[0] = k, partials and weight follow.
    PSC_CHECK(!instance_.groups().empty() &&
              first_count <= instance_.groups()[0].size);
    const IdentityInstance::Group& group = instance_.groups()[0];
    counts_[0] = first_count;
    for (size_t i = 0; i < instance_.num_sources(); ++i) {
      if ((group.signature & (uint64_t{1} << i)) != 0) {
        partial_in_extension_[i] += first_count;
      }
    }
    return Recurse(1, one, binomials_.Choose(group.size, first_count));
  }

  uint64_t visited() const { return visited_; }

 private:
  /// Visits the node at depth `g` whose weight is `parent_weight` ×
  /// `factor` (the C(n, k) of the count just chosen). The product is formed
  /// only once the node survives pruning — and at a leaf only once its
  /// counts are feasible — so pruned children cost no BigInt multiply.
  Result<bool> Recurse(size_t g, const BigInt& parent_weight,
                       const BigInt& factor) {
    // Cooperative limits: one budget node per DFS tree node. Workers of a
    // sharded count share the budget, so the first shard to trip it stops
    // every other shard at its next node.
    if (!budget_.Charge()) return budget_.ToStatus();
    // Soundness pruning: some source can no longer reach its minimum.
    for (const auto& [i, need] : active_[g]) {
      if (partial_in_extension_[i] < need) return true;
    }
    if (g == instance_.groups().size()) {
      ++visited_;
      if (instance_.CheckCounts(counts_)) {
        return (*visit_)(counts_, parent_weight * factor);
      }
      return true;
    }
    const BigInt weight = parent_weight * factor;
    const IdentityInstance::Group& group = instance_.groups()[g];
    for (int64_t k = 0; k <= group.size; ++k) {
      counts_[g] = k;
      for (size_t i = 0; i < instance_.num_sources(); ++i) {
        if ((group.signature & (uint64_t{1} << i)) != 0) {
          partial_in_extension_[i] += k;
        }
      }
      auto deeper = Recurse(g + 1, weight, binomials_.Choose(group.size, k));
      for (size_t i = 0; i < instance_.num_sources(); ++i) {
        if ((group.signature & (uint64_t{1} << i)) != 0) {
          partial_in_extension_[i] -= k;
        }
      }
      if (!deeper.ok()) return deeper.status();
      if (!*deeper) {
        counts_[g] = 0;
        return false;
      }
    }
    counts_[g] = 0;
    return true;
  }

  const IdentityInstance& instance_;
  BinomialTable& binomials_;
  /// Cooperative deadline / work budget (shared state across copies).
  limits::Budget budget_;
  /// active_[g]: (source, need) pairs that can actually prune at depth g.
  std::vector<std::vector<std::pair<size_t, int64_t>>> active_;
  const std::function<bool(const std::vector<int64_t>&, const BigInt&)>*
      visit_ = nullptr;
  std::vector<int64_t> counts_;
  std::vector<int64_t> partial_in_extension_;
  uint64_t visited_ = 0;
};

/// Per-shard accumulator for the parallel count: the k-th shard owns the
/// counts[0] == k subtree.
struct CountShard {
  BigInt world_count;
  std::vector<BigInt> marked_sums;
  uint64_t feasible_shapes = 0;
  uint64_t visited_shapes = 0;
  Status error;
};

}  // namespace

Result<CountingOutcome> SignatureCounter::Count(exec::ThreadPool* pool,
                                                const limits::Budget& budget) {
  PSC_OBS_SPAN("counting.count");
  CountingOutcome outcome;
  const auto& groups = instance_->groups();
  // Σ over feasible shapes of weight·k_g, later divided by n_g.
  std::vector<BigInt> marked_sums(groups.size());

  const bool parallel =
      pool != nullptr && pool->size() > 1 && !groups.empty();
  if (!parallel) {
    ShapeEnumerator enumerator(*instance_, *binomials_, suffix_max_, budget);
    PSC_RETURN_NOT_OK(
        enumerator
            .Run([&](const std::vector<int64_t>& counts,
                     const BigInt& weight) {
              ++outcome.feasible_shapes;
              outcome.world_count += weight;
              for (size_t g = 0; g < groups.size(); ++g) {
                if (counts[g] == 0) continue;
                BigInt term = weight;
                term.MulU32(static_cast<uint32_t>(counts[g]));
                marked_sums[g] += term;
              }
              return true;
            })
            .status());
    outcome.visited_shapes = enumerator.visited();
  } else {
    // One shard per value of counts[0]; per-shard partials merge in shard
    // order, so the BigInt totals equal the sequential fold bit for bit.
    // Every binomial row a shard can touch is materialized up front: the
    // shards then only read the shared table, instead of each rebuilding
    // the (potentially huge) first-group row from scratch.
    for (const auto& group : groups) binomials_->Warm(group.size);
    const size_t shards = static_cast<size_t>(groups[0].size) + 1;
    // A tripped budget cancels shards still queued on the pool; shards
    // skipped this way merge as empty-and-error-free, which is safe
    // because the shard that tripped the budget always carries the error.
    const limits::CancelToken cancel_token = budget.token();
    const limits::CancelToken* cancel =
        budget.active() ? &cancel_token : nullptr;
    CountShard merged;
    merged.marked_sums.resize(groups.size());
    merged = exec::ParallelReduce<CountShard>(
        pool, shards, std::move(merged),
        [&](size_t k) {
          CountShard shard;
          shard.marked_sums.resize(groups.size());
          ShapeEnumerator enumerator(*instance_, *binomials_, suffix_max_,
                                     budget);
          auto run = enumerator.RunWithFirstGroup(
              static_cast<int64_t>(k),
              [&](const std::vector<int64_t>& counts, const BigInt& weight) {
                ++shard.feasible_shapes;
                shard.world_count += weight;
                for (size_t g = 0; g < groups.size(); ++g) {
                  if (counts[g] == 0) continue;
                  BigInt term = weight;
                  term.MulU32(static_cast<uint32_t>(counts[g]));
                  shard.marked_sums[g] += term;
                }
                return true;
              });
          if (!run.ok()) shard.error = run.status();
          shard.visited_shapes = enumerator.visited();
          return shard;
        },
        [](CountShard& acc, CountShard part) {
          if (!acc.error.ok()) return;
          if (!part.error.ok()) {
            acc.error = part.error;
            return;
          }
          acc.world_count += part.world_count;
          for (size_t g = 0; g < acc.marked_sums.size(); ++g) {
            acc.marked_sums[g] += part.marked_sums[g];
          }
          acc.feasible_shapes += part.feasible_shapes;
          acc.visited_shapes += part.visited_shapes;
        },
        cancel);
    PSC_RETURN_NOT_OK(merged.error);
    // All-shards-skipped corner (e.g. an external Cancel before any shard
    // ran): no shard recorded an error, but the count is not complete.
    if (budget.reason() != limits::StopReason::kNone) {
      return budget.ToStatus();
    }
    outcome.world_count = std::move(merged.world_count);
    marked_sums = std::move(merged.marked_sums);
    outcome.feasible_shapes = merged.feasible_shapes;
    outcome.visited_shapes = merged.visited_shapes;
  }
  PSC_OBS_COUNTER_ADD("counting.shapes_visited", outcome.visited_shapes);
  PSC_OBS_COUNTER_ADD("counting.feasible_shapes", outcome.feasible_shapes);

  outcome.worlds_containing.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    if (marked_sums[g].IsZero()) continue;
    // C(n,k)·k = n·C(n−1,k−1), so the sum is divisible by n_g termwise.
    outcome.worlds_containing[g] =
        marked_sums[g].DivExactU32(static_cast<uint32_t>(groups[g].size));
  }
  return outcome;
}

Result<std::vector<WorldShape>> SignatureCounter::FeasibleShapes(
    const limits::Budget& budget) {
  std::vector<WorldShape> shapes;
  ShapeEnumerator enumerator(*instance_, *binomials_, suffix_max_, budget);
  PSC_ASSIGN_OR_RETURN(
      const bool completed,
      enumerator.Run(
          [&](const std::vector<int64_t>& counts, const BigInt& weight) {
            if (shapes.size() == kMaxStoredShapes) return false;
            shapes.push_back(WorldShape{counts, weight});
            return true;
          }));
  if (!completed) {
    return Status::ResourceExhausted(
        StrCat("more than ", kMaxStoredShapes, " feasible shapes"));
  }
  return shapes;
}

Result<std::optional<WorldShape>> SignatureCounter::FirstFeasibleShape(
    uint64_t* visited, const limits::Budget& budget) {
  std::optional<WorldShape> first;
  ShapeEnumerator enumerator(*instance_, *binomials_, suffix_max_, budget);
  PSC_RETURN_NOT_OK(
      enumerator
          .Run([&](const std::vector<int64_t>& counts, const BigInt& weight) {
            first = WorldShape{counts, weight};
            return false;
          })
          .status());
  if (visited != nullptr) *visited = enumerator.visited();
  PSC_OBS_COUNTER_ADD("counting.shapes_visited", enumerator.visited());
  return first;
}

}  // namespace psc
