#include "psc/counting/model_counter.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>

#include "psc/exec/parallel.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/combinatorics.h"
#include "psc/util/string_util.h"

namespace psc {

SignatureCounter::SignatureCounter(const IdentityInstance* instance)
    : instance_(instance) {
  PSC_CHECK(instance_ != nullptr);
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

using Int128 = __int128;
using Uint128 = unsigned __int128;

// N·2^N < 2^128 ⟺ N < 2^(128−N): true for N = 121, false for N = 122.
constexpr size_t kMaxFacts128 = SignatureCounter::kMax128BitUniverseFacts;
static_assert(kMaxFacts128 < (size_t{1} << (128 - kMaxFacts128)) &&
                  kMaxFacts128 + 1 >= (size_t{1} << (127 - kMaxFacts128)),
              "kMax128BitUniverseFacts must be the largest N with "
              "N·2^N < 2^128");

/// value·k for a count k (at most the universe size).
Uint128 TimesCount(Uint128 value, int64_t k) {
  return value * static_cast<Uint128>(k);
}
BigInt TimesCount(BigInt value, int64_t k) {
  value.MulU32(static_cast<uint32_t>(k));
  return value;
}

BigInt ToBigInt(const BigInt& value) { return value; }
BigInt ToBigInt(Uint128 value) { return BigInt::FromUint128(value); }

/// C(n, 0..n) in 128-bit arithmetic, by C(n, k+1) = C(n, k)·(n−k)/(k+1).
/// Exact for n ≤ kMax128BitUniverseFacts: C(n, k)·(n−k) ≤ n·2^n < 2^128.
std::vector<Uint128> BinomialRow128(int64_t n) {
  std::vector<Uint128> row(static_cast<size_t>(n) + 1);
  row[0] = 1;
  for (size_t k = 0; k + 1 < row.size(); ++k) {
    row[k + 1] = row[k] * static_cast<Uint128>(static_cast<size_t>(n) - k) /
                 static_cast<Uint128>(k + 1);
  }
  return row;
}

/// Each group's row C(n_g, 0..n_g) in `Num` arithmetic, built once per
/// distinct group size and kept in `owned`.
template <typename Num>
std::vector<const std::vector<Num>*> BinomialRows(
    const IdentityInstance& instance,
    std::map<int64_t, std::vector<Num>>* owned) {
  std::vector<const std::vector<Num>*> rows;
  rows.reserve(instance.groups().size());
  for (const auto& group : instance.groups()) {
    auto [it, inserted] = owned->try_emplace(group.size);
    if (inserted) {
      if constexpr (std::is_same_v<Num, BigInt>) {
        it->second = BinomialRow(group.size);
      } else {
        it->second = BinomialRow128(group.size);
      }
    }
    rows.push_back(&it->second);
  }
  return rows;
}

/// The number type of a search that needs no weights: products are free
/// and no binomial row is read.
struct NoWeight {
  explicit NoWeight(int /*one*/ = 1) {}
  NoWeight operator*(const NoWeight&) const { return NoWeight(); }
};

/// Level-bounded DFS over per-group count vectors (k_0, …, k_{G−1}) in
/// lexicographic order, with weights ∏ C(n_g, k_g) in `Num` arithmetic
/// (`unsigned __int128` or `BigInt`, or `NoWeight` to visit the same
/// vectors without weights).
///
/// Soundness, partialᵢ + (counts still to choose) ≥ tᵢ, can only be met
/// while partialᵢ ≥ needᵢ(g) = tᵢ − suffix_max[i][g] at depth g. The level
/// of group g starts its loop at the least k that keeps every child at
/// depth g+1 above its need. Only sources whose extension holds group g
/// can bound that loop: any other source has the same need at depths g
/// and g+1, and every expanded node meets the needs of its own depth (the
/// root because tᵢ ≤ |vᵢ|). So the search reaches exactly the count
/// vectors that pass every soundness test.
///
/// The last group is not looped over: soundness and completeness are both
/// linear in its count k, so for a fixed prefix the feasible k form one
/// interval [lo, hi], computed from the constraints in O(sources). The
/// budget is charged one node per expanded node: each internal node, and
/// each last-group run.
template <typename Num>
class ShapeEnumerator {
 public:
  /// `rows[g]` holds C(n_g, 0..n_g) and must outlive the enumerator;
  /// `NoWeight` takes no rows.
  ShapeEnumerator(const IdentityInstance& instance,
                  std::vector<const std::vector<Num>*> rows,
                  const std::vector<std::vector<int64_t>>& suffix_max,
                  limits::Budget budget)
      : instance_(instance),
        groups_(instance.groups()),
        rows_(std::move(rows)),
        budget_(std::move(budget)),
        members_(groups_.size()),
        needs_(groups_.size()) {
    for (size_t g = 0; g < groups_.size(); ++g) {
      for (size_t i = 0; i < instance_.num_sources(); ++i) {
        if ((groups_[g].signature & (uint64_t{1} << i)) == 0) continue;
        members_[g].push_back(i);
        const int64_t need =
            instance_.constraints()[i].min_sound - suffix_max[i][g + 1];
        if (need > 0) needs_[g].emplace_back(i, need);
      }
    }
    for (size_t i = 0; i < instance_.num_sources(); ++i) {
      const Rational& c = instance_.constraints()[i].completeness;
      if (c.IsZero()) continue;
      const bool member =
          !groups_.empty() &&
          (groups_.back().signature & (uint64_t{1} << i)) != 0;
      completeness_.push_back(
          {i, member, c.numerator(), c.denominator()});
    }
  }

  /// \brief Calls `run(counts, weight, lo, hi)` for every last-group run
  /// with a non-empty feasible interval [lo, hi], in lexicographic order.
  /// `counts` holds the prefix k_0..k_{G−2} (its last entry is 0) and
  /// `weight` the prefix's ∏ C(n_g, k_g); `run` returns false to stop.
  /// Returns false iff stopped. Requires at least one group.
  ///
  /// With `first_count` ≥ 0 only the subtree k_0 = first_count is
  /// searched, and its root is not charged: a sharded caller charges the
  /// root once through `ExpandRoot` and passes counts it admits.
  template <typename RunFn>
  Result<bool> ForEachRun(int64_t first_count, RunFn&& run) {
    PSC_CHECK(!groups_.empty());
    Reset();
    if (first_count < 0) return Level(0, Num(1), run);
    PSC_CHECK(groups_.size() >= 2 && first_count <= groups_[0].size);
    Choose(0, first_count);
    return Level(1, Weight(0, first_count), run);
  }

  /// \brief Calls `visit(counts, weight)` for every feasible shape in
  /// lexicographic order; `visit` returns false to stop. Returns false
  /// iff stopped.
  template <typename VisitFn>
  Result<bool> ForEachShape(VisitFn&& visit) {
    Reset();
    if (groups_.empty()) {
      // The empty universe has one world, the empty one, and it meets
      // every bound: all thresholds and extensions are empty.
      if (!budget_.Charge()) return budget_.ToStatus();
      visited_ = 1;
      return visit(counts_, Num(1));
    }
    const size_t last = groups_.size() - 1;
    auto run = [&](const std::vector<int64_t>&, const Num& weight, int64_t lo,
                   int64_t hi) {
      for (int64_t k = lo; k <= hi; ++k) {
        counts_[last] = k;
        if (!visit(counts_, weight * Weight(last, k))) {
          // The run counted its whole sound range; keep only the vectors
          // up to the shape the visitor stopped at.
          visited_ -= static_cast<uint64_t>(groups_[last].size - k);
          return false;
        }
      }
      counts_[last] = 0;
      return true;
    };
    return Level(0, Num(1), run);
  }

  /// \brief Expands the root for a sharded search: charges its node and
  /// returns the least first-group count the soundness tests admit (the
  /// admitted counts are [that, n_0]).
  Result<int64_t> ExpandRoot() {
    Reset();
    if (!budget_.Charge()) return budget_.ToStatus();
    return LeastCount(0);
  }

  /// Count vectors that passed every soundness test so far.
  uint64_t visited() const { return visited_; }

 private:
  /// A completeness bound cᵢ = num/den > 0 and whether source i's
  /// extension holds the last group.
  struct CompletenessTerm {
    size_t source;
    bool member;
    int64_t num;
    int64_t den;
  };

  /// C(n_g, k) from group g's row; nothing for `NoWeight`.
  decltype(auto) Weight(size_t g, int64_t k) const {
    if constexpr (std::is_same_v<Num, NoWeight>) {
      return NoWeight();
    } else {
      return (*rows_[g])[static_cast<size_t>(k)];
    }
  }

  void Reset() {
    counts_.assign(groups_.size(), 0);
    partial_.assign(instance_.num_sources(), 0);
    total_ = 0;
    visited_ = 0;
  }

  void Choose(size_t g, int64_t k) {
    counts_[g] = k;
    total_ += k;
    for (const size_t i : members_[g]) partial_[i] += k;
  }

  void Unchoose(size_t g, int64_t k) {
    counts_[g] = 0;
    total_ -= k;
    for (const size_t i : members_[g]) partial_[i] -= k;
  }

  /// Least count of group g that keeps every child above its needs.
  int64_t LeastCount(size_t g) const {
    int64_t lo = 0;
    for (const auto& [i, need] : needs_[g]) {
      lo = std::max(lo, need - partial_[i]);
    }
    return lo;
  }

  template <typename RunFn>
  Result<bool> Level(size_t g, const Num& weight, RunFn& run) {
    // Workers of a sharded count share the budget, so the first shard to
    // trip it stops every other shard at its next node.
    if (!budget_.Charge()) return budget_.ToStatus();
    const int64_t lo = LeastCount(g);
    if (g + 1 == groups_.size()) return Run(weight, lo, run);
    for (int64_t k = lo; k <= groups_[g].size; ++k) {
      Choose(g, k);
      auto deeper = Level(g + 1, weight * Weight(g, k), run);
      Unchoose(g, k);
      if (!deeper.ok()) return deeper.status();
      if (!*deeper) return false;
    }
    return true;
  }

  /// The last group's run: every count in [sound_lo, n] passes soundness;
  /// completeness cuts that range down to the feasible interval.
  template <typename RunFn>
  Result<bool> Run(const Num& weight, int64_t sound_lo, RunFn& run) {
    const int64_t size = groups_.back().size;
    visited_ += static_cast<uint64_t>(size - sound_lo + 1);
    // Completeness of source i at last count k, with prefix total T and
    // prefix in-extension count Pᵢ: num·(T + k) ≤ den·(Pᵢ + [member]·k).
    // A bound is divided out only when it cuts the current range.
    int64_t lo = sound_lo;
    int64_t hi = size;
    for (const CompletenessTerm& term : completeness_) {
      const Int128 slack = Int128(term.den) * partial_[term.source] -
                           Int128(term.num) * total_;
      if (term.member) {
        // (den − num)·k ≥ −slack, with den ≥ num since cᵢ ≤ 1.
        const int64_t step = term.den - term.num;
        if (Int128(step) * lo >= -slack) continue;
        if (step == 0) return true;
        const Int128 least = Quotient(-slack + (step - 1), step);
        if (least > hi) return true;
        lo = static_cast<int64_t>(least);
      } else {
        // num·k ≤ slack.
        if (Int128(term.num) * hi <= slack) continue;
        if (slack < 0) return true;
        hi = static_cast<int64_t>(Quotient(slack, term.num));
      }
    }
    if (lo > hi) return true;
    return run(counts_, weight, lo, hi);
  }

  /// ⌊a / b⌋ for a ≥ 0 and b > 0, in one machine division when a fits.
  static Int128 Quotient(Int128 a, int64_t b) {
    if (a <= INT64_MAX) return static_cast<int64_t>(a) / b;
    return a / b;
  }

  const IdentityInstance& instance_;
  const std::vector<IdentityInstance::Group>& groups_;
  std::vector<const std::vector<Num>*> rows_;
  /// Cooperative deadline / work budget (shared state across copies).
  limits::Budget budget_;
  /// members_[g]: the sources whose extension holds group g.
  std::vector<std::vector<size_t>> members_;
  /// needs_[g]: (i, needᵢ(g+1)) for member sources with a positive need.
  std::vector<std::vector<std::pair<size_t, int64_t>>> needs_;
  std::vector<CompletenessTerm> completeness_;
  std::vector<int64_t> counts_;
  std::vector<int64_t> partial_;
  int64_t total_ = 0;
  uint64_t visited_ = 0;
};

/// Sums over the feasible shapes of one search, or of one shard of it.
template <typename Num>
struct CountSums {
  Num world_count{};
  /// Σ weight·k_g per group g.
  std::vector<Num> marked_sums;
  uint64_t feasible_shapes = 0;
  uint64_t visited_shapes = 0;
  Status error;
};

/// `Count` in `Num` arithmetic over an instance with at least one group.
template <typename Num>
Result<CountingOutcome> CountRuns(
    const IdentityInstance& instance,
    const std::vector<const std::vector<Num>*>& rows,
    const std::vector<std::vector<int64_t>>& suffix_max,
    exec::ThreadPool* pool, const limits::Budget& budget) {
  const auto& groups = instance.groups();
  const size_t last = groups.size() - 1;
  // Prefix sums of the last group's row: sum0[j] = Σ_{k<j} C(n, k) and
  // sum1[j] = Σ_{k<j} k·C(n, k), so a run sums in two subtractions.
  const std::vector<Num>& row = *rows[last];
  std::vector<Num> sum0(row.size() + 1);
  std::vector<Num> sum1(row.size() + 1);
  for (size_t k = 0; k < row.size(); ++k) {
    sum0[k + 1] = sum0[k] + row[k];
    sum1[k + 1] = sum1[k] + TimesCount(row[k], static_cast<int64_t>(k));
  }
  // The whole search (first_count < 0) or the shard under one first-group
  // count. A run of prefix weight W over [lo, hi] holds Σ_k W·C(n, k)
  // worlds; each carries the prefix's counts, and Σ_k W·k·C(n, k) marks
  // the last group.
  const auto search = [&](int64_t first_count) {
    CountSums<Num> sums;
    sums.marked_sums.resize(groups.size());
    ShapeEnumerator<Num> enumerator(instance, rows, suffix_max, budget);
    auto searched = enumerator.ForEachRun(
        first_count, [&](const std::vector<int64_t>& counts,
                         const Num& weight, int64_t lo, int64_t hi) {
          const size_t begin = static_cast<size_t>(lo);
          const size_t end = static_cast<size_t>(hi) + 1;
          const Num run_weight = weight * (sum0[end] - sum0[begin]);
          for (size_t g = 0; g < last; ++g) {
            if (counts[g] != 0) {
              sums.marked_sums[g] += TimesCount(run_weight, counts[g]);
            }
          }
          sums.marked_sums[last] += weight * (sum1[end] - sum1[begin]);
          sums.world_count += run_weight;
          sums.feasible_shapes += static_cast<uint64_t>(hi - lo + 1);
          return true;
        });
    if (!searched.ok()) sums.error = searched.status();
    sums.visited_shapes = enumerator.visited();
    return sums;
  };

  CountSums<Num> merged;
  if (pool == nullptr || pool->size() <= 1 || groups.size() < 2) {
    merged = search(-1);
  } else {
    // One shard per admitted first-group count. Shards only read the
    // binomial rows and merge exact sums in shard order.
    ShapeEnumerator<Num> root(instance, rows, suffix_max, budget);
    PSC_ASSIGN_OR_RETURN(const int64_t first_lo, root.ExpandRoot());
    const size_t shards = static_cast<size_t>(groups[0].size - first_lo + 1);
    const limits::CancelToken cancel_token = budget.token();
    merged.marked_sums.resize(groups.size());
    merged = exec::ParallelReduce<CountSums<Num>>(
        pool, shards, std::move(merged),
        [&](size_t shard) {
          return search(first_lo + static_cast<int64_t>(shard));
        },
        [](CountSums<Num>& acc, CountSums<Num> part) {
          if (!acc.error.ok()) return;
          if (!part.error.ok()) {
            acc.error = std::move(part.error);
            return;
          }
          acc.world_count += part.world_count;
          for (size_t g = 0; g < acc.marked_sums.size(); ++g) {
            acc.marked_sums[g] += part.marked_sums[g];
          }
          acc.feasible_shapes += part.feasible_shapes;
          acc.visited_shapes += part.visited_shapes;
        },
        budget.active() ? &cancel_token : nullptr);
    // Shards skipped after a cancel never reached the merge: the sums are
    // then partial even though no shard that ran saw the trip.
    if (merged.error.ok() && budget.reason() != limits::StopReason::kNone) {
      return budget.ToStatus();
    }
  }
  PSC_RETURN_NOT_OK(merged.error);

  CountingOutcome outcome;
  outcome.world_count = ToBigInt(merged.world_count);
  outcome.feasible_shapes = merged.feasible_shapes;
  outcome.visited_shapes = merged.visited_shapes;
  outcome.worlds_containing.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    // C(n,k)·k = n·C(n−1,k−1), so the sum is divisible by n_g termwise.
    outcome.worlds_containing[g] =
        ToBigInt(merged.marked_sums[g])
            .DivExactU32(static_cast<uint32_t>(groups[g].size));
  }
  return outcome;
}

}  // namespace

Result<CountingOutcome> SignatureCounter::Count(exec::ThreadPool* pool,
                                                const limits::Budget& budget) {
  PSC_OBS_SPAN("counting.count");
  CountingOutcome outcome;
  if (instance_->groups().empty()) {
    // The empty universe: one world, the empty one, feasible (see
    // ForEachShape).
    if (!budget.Charge()) return budget.ToStatus();
    outcome.world_count = BigInt(1);
    outcome.feasible_shapes = 1;
    outcome.visited_shapes = 1;
  } else if (instance_->universe().size() <= kMax128BitUniverseFacts) {
    std::map<int64_t, std::vector<Uint128>> owned;
    PSC_ASSIGN_OR_RETURN(
        outcome, CountRuns(*instance_, BinomialRows(*instance_, &owned),
                           suffix_max_, pool, budget));
  } else {
    std::map<int64_t, std::vector<BigInt>> owned;
    PSC_ASSIGN_OR_RETURN(
        outcome, CountRuns(*instance_, BinomialRows(*instance_, &owned),
                           suffix_max_, pool, budget));
  }
  PSC_OBS_COUNTER_ADD("counting.shapes_visited", outcome.visited_shapes);
  PSC_OBS_COUNTER_ADD("counting.feasible_shapes", outcome.feasible_shapes);
  return outcome;
}

namespace {

/// Appends each feasible shape's counts to `counts` and its running
/// weight total, in `Num` arithmetic, to `cumulative`, up to the first
/// total above `max_total`; false when more than `kMaxStoredShapes` are
/// feasible. `visited` receives the walk's count vectors that pass every
/// soundness test.
template <typename Num>
Result<bool> FillShapeTable(
    const IdentityInstance& instance,
    std::vector<const std::vector<Num>*> rows,
    const std::vector<std::vector<int64_t>>& suffix_max,
    const limits::Budget& budget, std::optional<uint64_t> max_total,
    std::vector<int64_t>* counts, std::vector<Num>* cumulative,
    uint64_t* visited) {
  ShapeEnumerator<Num> enumerator(instance, std::move(rows), suffix_max,
                                  budget);
  std::optional<Num> bound;
  if (max_total.has_value()) bound = Num(*max_total);
  bool stored_all = true;
  Num total{};
  auto walked = enumerator.ForEachShape(
      [&](const std::vector<int64_t>& shape, const Num& weight) {
        if (cumulative->size() == SignatureCounter::kMaxStoredShapes) {
          stored_all = false;
          return false;
        }
        counts->insert(counts->end(), shape.begin(), shape.end());
        total += weight;
        cumulative->push_back(total);
        return !bound.has_value() || !(total > *bound);
      });
  *visited = enumerator.visited();
  PSC_RETURN_NOT_OK(walked.status());
  return stored_all;
}

}  // namespace

Result<ShapeTable> SignatureCounter::FeasibleShapeTable(
    const limits::Budget& budget, std::optional<uint64_t> max_total) {
  ShapeTable table;
  table.num_groups_ = instance_->groups().size();
  bool stored_all = false;
  uint64_t visited = 0;
  if (instance_->universe().size() <= kMax128BitUniverseFacts) {
    std::map<int64_t, std::vector<Uint128>> owned;
    PSC_ASSIGN_OR_RETURN(
        stored_all,
        FillShapeTable(*instance_, BinomialRows(*instance_, &owned),
                       suffix_max_, budget, max_total, &table.counts_,
                       &table.cumulative_128_, &visited));
  } else {
    std::map<int64_t, std::vector<BigInt>> owned;
    PSC_ASSIGN_OR_RETURN(
        stored_all,
        FillShapeTable(*instance_, BinomialRows(*instance_, &owned),
                       suffix_max_, budget, max_total, &table.counts_,
                       &table.cumulative_, &visited));
  }
  if (!stored_all) {
    return Status::ResourceExhausted(
        StrCat("more than ", kMaxStoredShapes, " feasible shapes"));
  }
  PSC_OBS_COUNTER_ADD("counting.shapes_visited", visited);
  PSC_OBS_COUNTER_ADD("counting.feasible_shapes", table.num_shapes());
  return table;
}

Result<std::optional<std::vector<int64_t>>>
SignatureCounter::FirstFeasibleShape(uint64_t* visited,
                                     const limits::Budget& budget) {
  // The walk of FeasibleShapeTable, without weights.
  std::optional<std::vector<int64_t>> first;
  ShapeEnumerator<NoWeight> enumerator(*instance_, {}, suffix_max_, budget);
  PSC_RETURN_NOT_OK(
      enumerator
          .ForEachShape([&](const std::vector<int64_t>& counts, NoWeight) {
            first = counts;
            return false;
          })
          .status());
  if (visited != nullptr) *visited = enumerator.visited();
  PSC_OBS_COUNTER_ADD("counting.shapes_visited", enumerator.visited());
  return first;
}

BigInt ShapeTable::weight(size_t i) const {
  if (!cumulative_128_.empty()) {
    return BigInt::FromUint128(cumulative_128_[i] -
                               (i == 0 ? 0 : cumulative_128_[i - 1]));
  }
  return i == 0 ? cumulative_[0] : cumulative_[i] - cumulative_[i - 1];
}

BigInt ShapeTable::total() const {
  if (!cumulative_128_.empty()) {
    return BigInt::FromUint128(cumulative_128_.back());
  }
  return cumulative_.empty() ? BigInt() : cumulative_.back();
}

size_t ShapeTable::Draw(std::mt19937_64& engine) const {
  // First shape whose running total exceeds the target.
  const auto search = [](const auto& cumulative, const auto& target) {
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(),
                                     target);
    PSC_CHECK(it != cumulative.end());
    return static_cast<size_t>(it - cumulative.begin());
  };
  if (!cumulative_128_.empty()) {
    return search(cumulative_128_, BigInt::RandomBelow128(
                                       cumulative_128_.back(), engine));
  }
  PSC_CHECK(!cumulative_.empty());
  return search(cumulative_, BigInt::RandomBelow(cumulative_.back(), engine));
}

}  // namespace psc
