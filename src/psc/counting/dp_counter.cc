#include "psc/counting/dp_counter.h"

#include <algorithm>
#include <map>

#include "psc/exec/parallel.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/combinatorics.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

using Int128 = __int128;

/// DP state: (T₁, …, Tₙ, |D|).
using State = std::vector<int64_t>;
using StateMap = std::map<State, BigInt>;

/// One DP pass. When `marked_group` is non-negative, one designated fact
/// of that group is forced into every world: its group contributes
/// C(n_g−1, k−1) for k ≥ 1 instead of C(n_g, k).
Result<BigInt> RunPass(const IdentityInstance& instance,
                       BinomialTable& binomials, int64_t marked_group,
                       uint64_t max_states, const limits::Budget& budget,
                       uint64_t* peak_states, uint64_t* feasible_states) {
  const size_t n = instance.num_sources();
  StateMap states;
  states.emplace(State(n + 1, 0), BigInt(1));

  for (size_t g = 0; g < instance.groups().size(); ++g) {
    const IdentityInstance::Group& group = instance.groups()[g];
    const bool marked = static_cast<int64_t>(g) == marked_group;
    StateMap next;
    for (const auto& [state, weight] : states) {
      // One budget node per expanded state; all concurrent passes share
      // the budget, so the first pass to trip it stops the others too.
      if (!budget.Charge()) return budget.ToStatus();
      const int64_t k_min = marked ? 1 : 0;
      for (int64_t k = k_min; k <= group.size; ++k) {
        const BigInt& combinations =
            marked ? binomials.Choose(group.size - 1, k - 1)
                   : binomials.Choose(group.size, k);
        if (combinations.IsZero()) continue;
        State successor = state;
        for (size_t i = 0; i < n; ++i) {
          if ((group.signature & (uint64_t{1} << i)) != 0) {
            successor[i] += k;
          }
        }
        successor[n] += k;
        next[std::move(successor)] += weight * combinations;
      }
    }
    states = std::move(next);
    PSC_OBS_COUNTER_ADD("counting.dp_cells", states.size());
    *peak_states = std::max<uint64_t>(*peak_states, states.size());
    if (states.size() > max_states) {
      return Status::ResourceExhausted(
          StrCat("DP state count ", states.size(), " exceeds the budget of ",
                 max_states));
    }
  }

  BigInt total;
  for (const auto& [state, weight] : states) {
    const int64_t world_size = state[n];
    bool feasible = true;
    for (size_t i = 0; i < n && feasible; ++i) {
      const IdentityInstance::SourceConstraint& constraint =
          instance.constraints()[i];
      if (state[i] < constraint.min_sound) {
        feasible = false;
        break;
      }
      const Int128 lhs =
          Int128(constraint.completeness.numerator()) * world_size;
      const Int128 rhs =
          Int128(constraint.completeness.denominator()) * state[i];
      feasible = lhs <= rhs;
    }
    if (feasible) {
      total += weight;
      if (feasible_states != nullptr) ++*feasible_states;
    }
  }
  return total;
}

}  // namespace

DpCounter::DpCounter(const IdentityInstance* instance) : instance_(instance) {
  PSC_CHECK(instance_ != nullptr);
}

Result<CountingOutcome> DpCounter::Count(uint64_t max_states,
                                         exec::ThreadPool* pool,
                                         const limits::Budget& budget) {
  PSC_OBS_SPAN("counting.dp_count");
  CountingOutcome outcome;
  const size_t num_groups = instance_->groups().size();
  outcome.worlds_containing.resize(num_groups);

  // Pass list: -1 counts all worlds, g >= 0 counts worlds containing a
  // designated fact of group g. Passes are independent DPs writing into
  // fixed per-pass slots, so the outcome is scheduling-independent (with
  // a null/single-worker pool this runs sequentially in pass order).
  std::vector<int64_t> passes;
  passes.push_back(-1);
  for (size_t g = 0; g < num_groups; ++g) {
    if (instance_->groups()[g].size > 0) {
      passes.push_back(static_cast<int64_t>(g));
    }
  }

  struct PassResult {
    BigInt total;
    uint64_t peak = 0;
    uint64_t feasible = 0;
    Status error;
  };
  std::vector<PassResult> slots(passes.size());
  // One shared table: every row a pass can touch (C(n_g, ·) and the
  // marked C(n_g−1, ·)) is materialized up front, so concurrent passes
  // only read it and no pass rebuilds the large rows.
  BinomialTable binomials;
  for (const auto& group : instance_->groups()) {
    binomials.Warm(group.size);
    if (group.size > 0) binomials.Warm(group.size - 1);
  }
  const limits::CancelToken cancel_token = budget.token();
  exec::ParallelFor(
      pool, passes.size(),
      [&](size_t p) {
        PassResult& slot = slots[p];  // disjoint per-pass slot
        auto total = RunPass(*instance_, binomials, passes[p], max_states,
                             budget, &slot.peak,
                             passes[p] < 0 ? &slot.feasible : nullptr);
        if (total.ok()) {
          slot.total = std::move(*total);
        } else {
          slot.error = total.status();
        }
        PSC_OBS_COUNTER_INC("counting.dp_passes");
      },
      budget.active() ? &cancel_token : nullptr);

  uint64_t peak = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassResult& slot = slots[p];
    PSC_RETURN_NOT_OK(slot.error);
    peak = std::max(peak, slot.peak);
    if (passes[p] < 0) {
      outcome.world_count = slot.total;
      outcome.feasible_shapes = slot.feasible;
    } else {
      outcome.worlds_containing[static_cast<size_t>(passes[p])] = slot.total;
    }
  }
  outcome.visited_shapes = peak;
  return outcome;
}

}  // namespace psc
