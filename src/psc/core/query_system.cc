#include "psc/core/query_system.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "psc/algebra/plan_compiler.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/exec/parallel.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

/// Near-1 threshold for deriving certain answers from floating-point
/// confidences in the compositional path.
constexpr double kCertainEpsilon = 1e-9;

/// The answer over `worlds` worlds from per-tuple world counts, which
/// `for_each_count(emit)` passes to `emit(tuple, count)` in Relation
/// order. A tuple is certain when its count equals the number of worlds
/// and possible when it is above zero.
template <typename ForEachCount>
Result<QueryAnswer> AnswerFromCounts(size_t arity, const std::string& method,
                                     uint64_t worlds,
                                     const ForEachCount& for_each_count) {
  if (worlds == 0) {
    return Status::Inconsistent(
        "poss(S) is empty: query answers are undefined");
  }
  QueryAnswer answer;
  answer.method = method;
  answer.worlds_used = worlds;
  answer.confidences = ProbRelation(arity);
  Status status;
  for_each_count([&](const Tuple& tuple, uint64_t count) {
    if (!status.ok()) return;
    answer.possible.insert(answer.possible.end(), tuple);
    if (count == worlds) answer.certain.insert(answer.certain.end(), tuple);
    status = answer.confidences.Insert(
        tuple, static_cast<double>(count) / static_cast<double>(worlds));
  });
  PSC_RETURN_NOT_OK(status);
  PSC_OBS_COUNTER_ADD("query.worlds_used", worlds);
  return answer;
}

/// Answer-tuple counts over a run of worlds. Counts over disjoint runs of
/// worlds merge by adding, so a block-parallel run finishes with exactly
/// the sequential result.
struct AnswerCounts {
  std::map<Tuple, uint64_t> counts;
  uint64_t worlds = 0;

  void MergeFrom(const AnswerCounts& other) {
    for (const auto& [tuple, count] : other.counts) counts[tuple] += count;
    worlds += other.worlds;
  }

  Result<QueryAnswer> Finish(size_t arity, const std::string& method) const {
    return AnswerFromCounts(arity, method, worlds, [&](const auto& emit) {
      for (const auto& [tuple, count] : counts) emit(tuple, count);
    });
  }
};

/// Per-tuple counts over one lineage's tuples (held[a] counts the worlds
/// holding lineage->tuples()[a]), with the first plan error met.
struct FlatCounts {
  explicit FlatCounts(const Lineage* lineage)
      : lineage(lineage), held(lineage->tuples().size(), 0) {}

  void MergeFrom(const FlatCounts& other) {
    for (size_t a = 0; a < held.size(); ++a) held[a] += other.held[a];
    worlds += other.worlds;
  }

  Result<QueryAnswer> Finish(size_t arity, const std::string& method) const {
    return AnswerFromCounts(arity, method, worlds, [&](const auto& emit) {
      for (size_t a = 0; a < held.size(); ++a) {
        if (held[a] > 0) emit(lineage->tuples()[a], held[a]);
      }
    });
  }

  const Lineage* lineage;
  std::vector<uint64_t> held;
  uint64_t worlds = 0;
  Status error;
};

/// The fact a world's fact index stands for.
using FactOf = std::function<Fact(size_t)>;

/// Answers worlds, given as fact indices, by lineage
/// (AlgebraExpr::EvalLineage) in groups of consecutive worlds. A group's
/// lineage is built over the union of its worlds' facts, and a group
/// closes before a world would take that union past twice the group's
/// largest world. Worlds that hold most of the universe therefore share
/// one lineage per group, while small worlds scattered over a large
/// universe are answered in groups about their own size: the query is
/// never evaluated over facts far beyond the worlds asked about.
class GroupAnswerer {
 public:
  /// `query` and `fact_of` must outlive the answerer; fact indices are
  /// below `universe_size`.
  GroupAnswerer(const AlgebraExpr* query, const FactOf* fact_of,
                size_t universe_size)
      : query_(query),
        fact_of_(fact_of),
        in_union_(universe_size),
        lineage_id_(universe_size) {}

  /// Adds the world made of the facts `members` to the open group, after
  /// answering the group into `counts` if the world would take its union
  /// past the bound. Returns the error of the first answered world that
  /// meets a plan error.
  Status Add(const std::vector<size_t>& members, AnswerCounts* counts) {
    size_t fresh = 0;
    for (const size_t id : members) fresh += in_union_.Test(id) ? 0 : 1;
    const size_t largest = std::max(largest_, members.size());
    if (!starts_.empty() && union_.size() + fresh > 2 * largest) {
      PSC_RETURN_NOT_OK(Flush(counts));
    }
    starts_.push_back(ids_.size());
    for (const size_t id : members) {
      ids_.push_back(static_cast<uint32_t>(id));
      if (in_union_.Test(id)) continue;
      in_union_.Set(id);
      union_.push_back(static_cast<uint32_t>(id));
    }
    largest_ = std::max(largest_, members.size());
    return Status::OK();
  }

  /// Answers the open group's worlds in order into `counts`, stopping at
  /// the first that meets a plan error and returning that error.
  Status Flush(AnswerCounts* counts) {
    if (starts_.empty()) return Status::OK();
    std::vector<Fact> facts;
    facts.reserve(union_.size());
    for (size_t i = 0; i < union_.size(); ++i) {
      lineage_id_[union_[i]] = static_cast<uint32_t>(i);
      facts.push_back((*fact_of_)(union_[i]));
    }
    PSC_ASSIGN_OR_RETURN(const Lineage lineage, query_->EvalLineage(facts));
    std::vector<uint64_t> held(lineage.tuples().size(), 0);
    FactBitset world(facts.size());
    Status status;
    for (size_t w = 0; w < starts_.size() && status.ok(); ++w) {
      const size_t end = w + 1 < starts_.size() ? starts_[w + 1] : ids_.size();
      for (size_t k = starts_[w]; k < end; ++k) {
        world.Set(lineage_id_[ids_[k]]);
      }
      status = lineage.ErrorIn(world);
      if (status.ok()) {
        for (size_t a = 0; a < held.size(); ++a) {
          if (lineage.Contains(a, world)) ++held[a];
        }
        ++counts->worlds;
      }
      for (size_t k = starts_[w]; k < end; ++k) {
        world.Reset(lineage_id_[ids_[k]]);
      }
    }
    for (size_t a = 0; a < held.size(); ++a) {
      if (held[a] > 0) counts->counts[lineage.tuples()[a]] += held[a];
    }
    for (const uint32_t id : union_) in_union_.Reset(id);
    union_.clear();
    ids_.clear();
    starts_.clear();
    largest_ = 0;
    return status;
  }

 private:
  const AlgebraExpr* query_;
  const FactOf* fact_of_;
  /// The open group: its worlds' fact indices back to back (world w
  /// starts at starts_[w]), the union of those facts in first-seen order,
  /// and the size of its largest world. Fact indices fit 32 bits: fact
  /// universes stay far below that (IdentityInstance::kMaxUniverseFacts).
  std::vector<uint32_t> ids_;
  std::vector<size_t> starts_;
  std::vector<uint32_t> union_;
  FactBitset in_union_;
  size_t largest_ = 0;
  /// Fact index → lineage fact id, for the facts of the open group.
  std::vector<uint32_t> lineage_id_;
};

/// Exact answering over the worlds `for_each_world(consume)` visits as
/// fact indices.
template <typename ForEachWorld>
Result<QueryAnswer> AnswerEveryWorld(const AlgebraExpr& query,
                                     const FactOf& fact_of,
                                     size_t universe_size,
                                     const ForEachWorld& for_each_world) {
  GroupAnswerer answerer(&query, &fact_of, universe_size);
  AnswerCounts counts;
  Status world_error;
  const std::function<bool(const std::vector<size_t>&)> consume =
      [&](const std::vector<size_t>& members) {
        world_error = answerer.Add(members, &counts);
        return world_error.ok();
      };
  const Result<bool> visited = for_each_world(consume);
  // The open group's worlds came before whatever stopped the visit.
  if (world_error.ok()) world_error = answerer.Flush(&counts);
  PSC_RETURN_NOT_OK(world_error);
  PSC_RETURN_NOT_OK(visited.status());
  return counts.Finish(query.OutputArity(), "exact-enumeration");
}

/// Per-call budget from the system options; inactive (null state, zero
/// overhead, bit-identical results) when no limit is configured.
limits::Budget MakeBudget(const QuerySystem::Options& options) {
  if (options.deadline_ms <= 0 && options.node_budget == 0 &&
      !options.cancel.has_value() &&
      limits::AmbientCallLimits() == nullptr) {
    return limits::Budget();
  }
  limits::BudgetOptions budget_options;
  budget_options.deadline_ms = options.deadline_ms;
  budget_options.node_budget = options.node_budget;
  budget_options.cancel = options.cancel;
  return limits::Budget(budget_options);
}

}  // namespace

Result<QuerySystem> QuerySystem::Create(SourceCollection collection) {
  return Create(std::move(collection), Options());
}

Result<QuerySystem> QuerySystem::Create(SourceCollection collection,
                                        Options options) {
  return QuerySystem(std::move(collection), options);
}

Result<ConsistencyReport> QuerySystem::CheckConsistency() const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.check_consistency");
  GeneralConsistencyChecker::Options options;
  options.threads = options_.threads;
  options.budget = MakeBudget(options_);
  const GeneralConsistencyChecker checker(options);
  return checker.Check(collection_);
}

Result<ConfidenceTable> QuerySystem::BaseConfidences(
    const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.base_confidences");
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  return ComputeBaseFactConfidences(
      instance, exec::SharedPool(exec::ResolveThreadCount(options_.threads)),
      MakeBudget(options_));
}

Result<QueryAnswer> QuerySystem::AnswerExact(
    const AlgebraExprPtr& query, const std::vector<Value>& domain) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_exact");
  const limits::Budget budget = MakeBudget(options_);
  if (collection_.AllIdentityViews()) {
    PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                         IdentityInstance::Create(collection_, domain));
    const IdentityWorldEnumerator enumerator(&instance);
    const FactOf fact_of = [&](size_t id) {
      return Fact(instance.relation(), instance.universe()[id]);
    };
    return AnswerEveryWorld(
        *query, fact_of, instance.universe().size(),
        [&](const auto& consume) {
          return enumerator.ForEachWorldIds(consume, budget);
        });
  }

  const BruteForceWorldEnumerator enumerator(&collection_, domain, budget);
  PSC_ASSIGN_OR_RETURN(const std::vector<Fact> universe,
                       enumerator.Universe());
  const FactOf fact_of = [&](size_t id) { return universe[id]; };
  return AnswerEveryWorld(*query, fact_of, universe.size(),
                          [&](const auto& consume) {
                            return enumerator.ForEachPossibleWorldIds(consume);
                          });
}

Result<QueryAnswer> QuerySystem::AnswerCompositional(
    const AlgebraExprPtr& query, const std::vector<Value>& domain) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_compositional");
  if (!collection_.AllIdentityViews()) {
    return Status::Unimplemented(
        "compositional confidences require identity views (the Section 5.1 "
        "special case that defines base-fact confidences)");
  }
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  PSC_ASSIGN_OR_RETURN(
      const ConfidenceTable table,
      ComputeBaseFactConfidences(
          instance,
          exec::SharedPool(exec::ResolveThreadCount(options_.threads)),
          MakeBudget(options_)));
  ProbRelation base_relation(instance.arity());
  for (const TupleConfidence& entry : table.entries) {
    PSC_RETURN_NOT_OK(base_relation.Insert(entry.tuple, entry.confidence));
  }
  std::map<std::string, ProbRelation> base;
  base.emplace(instance.relation(), std::move(base_relation));

  QueryAnswer answer;
  answer.method = "compositional";
  PSC_ASSIGN_OR_RETURN(answer.confidences, query->EvalConfidence(base));
  for (const auto& [tuple, confidence] : answer.confidences.entries()) {
    answer.possible.insert(tuple);
    if (confidence >= 1.0 - kCertainEpsilon) answer.certain.insert(tuple);
  }
  return answer;
}

Result<QueryAnswer> QuerySystem::AnswerMonteCarlo(
    const AlgebraExprPtr& query, const std::vector<Value>& domain,
    uint64_t samples, uint64_t seed) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  if (samples == 0) return Status::InvalidArgument("samples must be >= 1");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_monte_carlo");
  if (!collection_.AllIdentityViews()) {
    return Status::Unimplemented(
        "Monte-Carlo answering requires identity views (uniform world "
        "sampling uses the signature-group representation)");
  }
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  // The budget covers the sampler build too.
  const limits::Budget budget = MakeBudget(options_);
  PSC_ASSIGN_OR_RETURN(const WorldSampler sampler,
                       WorldSampler::Create(&instance, budget));
  const FactOf fact_of = [&](size_t id) {
    return Fact(instance.relation(), instance.universe()[id]);
  };

  // Counter-based streams: block b always draws its (at most)
  // kBlockSamples worlds from Rng(MixSeed(seed, b)), no matter which
  // thread runs it — the sampled multiset, and hence the estimate, is a
  // pure function of (seed, samples), identical for every thread count.
  // The block size is fixed (not derived from the worker count) for the
  // same reason.
  constexpr uint64_t kBlockSamples = 64;
  const size_t num_blocks =
      static_cast<size_t>((samples + kBlockSamples - 1) / kBlockSamples);
  exec::ThreadPool* const pool =
      exec::SharedPool(exec::ResolveThreadCount(options_.threads));
  const limits::CancelToken cancel_token = budget.token();
  const limits::CancelToken* const cancel =
      budget.active() ? &cancel_token : nullptr;
  // Draws block `block`'s worlds in order and hands each to `answer`,
  // which returns false to end the block. On a trip the block ends with
  // its samples so far; the merged partial answer is flagged truncated.
  const auto draw_block = [&](size_t block, const auto& answer) {
    Rng rng(MixSeed(seed, block));
    WorldSampler::DrawnWorld world;
    const uint64_t begin = block * kBlockSamples;
    const uint64_t end = std::min(samples, begin + kBlockSamples);
    for (uint64_t i = begin; i < end; ++i) {
      if (!budget.Charge()) return;
      sampler.Draw(&rng, &world);
      if (!answer(world)) return;
    }
  };
  // The first error in sample order wins; counts merge by adding.
  const auto merge = [](auto& acc, auto part) {
    if (!acc.error.ok()) return;
    if (!part.error.ok()) {
      acc.error = std::move(part.error);
      return;
    }
    acc.MergeFrom(part);
  };
  // A tripped budget truncates: the samples drawn so far are a valid
  // (smaller) estimate. With zero samples there is nothing to report.
  const auto finish = [&](const auto& merged) -> Result<QueryAnswer> {
    PSC_RETURN_NOT_OK(merged.error);
    if (budget.reason() != limits::StopReason::kNone &&
        merged.worlds == 0) {
      return budget.ToStatus();
    }
    PSC_ASSIGN_OR_RETURN(QueryAnswer answer,
                         merged.Finish(query->OutputArity(), "monte-carlo"));
    if (budget.reason() != limits::StopReason::kNone) {
      answer.truncated = true;
      answer.truncation_reason = budget.ToStatus().message();
    }
    return answer;
  };

  // When twice the smallest world covers every fact a draw can hold, a
  // GroupAnswerer could never close a group: every block would build the
  // same lineage. Build it once, over those facts, and count per lineage
  // tuple in flat arrays.
  const std::vector<size_t> drawable = sampler.DrawableFacts();
  if (2 * sampler.min_world_size() >= drawable.size()) {
    std::vector<uint32_t> lineage_id(instance.universe().size());
    std::vector<Fact> facts;
    facts.reserve(drawable.size());
    for (size_t i = 0; i < drawable.size(); ++i) {
      lineage_id[drawable[i]] = static_cast<uint32_t>(i);
      facts.push_back(fact_of(drawable[i]));
    }
    PSC_ASSIGN_OR_RETURN(const Lineage lineage, query->EvalLineage(facts));
    const size_t num_tuples = lineage.tuples().size();
    const auto& groups = instance.groups();
    const std::optional<std::vector<uint32_t>> single_facts =
        lineage.SingleFacts();
    if (single_facts.has_value()) {
      // Each tuple holds in exactly the worlds that hold its one fact, and
      // no world fails, so counts come straight from the picks. full[g]
      // counts the draws that took group g from its left-out side, which
      // hold every member but the picks; delta[f] adds one per draw that
      // kept fact f as a pick and subtracts one per draw that left it out.
      // Fact f is then held in full[group(f)] + delta[f] worlds.
      PSC_OBS_COUNTER_INC("query.mc_per_fact_calls");
      const FlatCounts merged = exec::ParallelReduce<FlatCounts>(
          pool, num_blocks, FlatCounts(&lineage),
          [&](size_t block) {
            FlatCounts result(&lineage);
            std::vector<int64_t> full(groups.size(), 0);
            std::vector<int64_t> delta(facts.size(), 0);
            draw_block(block, [&](const WorldSampler::DrawnWorld& world) {
              for (const auto& drawn : world.groups()) {
                const std::vector<size_t>& members =
                    groups[drawn.group].members;
                int64_t step = 1;
                if (!drawn.kept) {
                  ++full[drawn.group];
                  step = -1;
                }
                for (const uint32_t pick : world.picks(drawn)) {
                  delta[lineage_id[members[pick]]] += step;
                }
              }
              ++result.worlds;
              return true;
            });
            for (size_t a = 0; a < num_tuples; ++a) {
              const uint32_t fact = (*single_facts)[a];
              const size_t group = instance.GroupIndexAt(drawable[fact]);
              result.held[a] =
                  static_cast<uint64_t>(full[group] + delta[fact]);
            }
            return result;
          },
          merge, cancel);
      return finish(merged);
    }
    // Otherwise each world is tested against every tuple's derivations.
    const FlatCounts merged = exec::ParallelReduce<FlatCounts>(
        pool, num_blocks, FlatCounts(&lineage),
        [&](size_t block) {
          FlatCounts result(&lineage);
          FactBitset bits(facts.size());
          std::vector<size_t> members;
          draw_block(block, [&](const WorldSampler::DrawnWorld& world) {
            sampler.ListMembers(world, &members);
            for (const size_t id : members) bits.Set(lineage_id[id]);
            result.error = lineage.ErrorIn(bits);
            if (!result.error.ok()) return false;
            for (size_t a = 0; a < num_tuples; ++a) {
              if (lineage.Contains(a, bits)) ++result.held[a];
            }
            ++result.worlds;
            for (const size_t id : members) bits.Reset(lineage_id[id]);
            return true;
          });
          return result;
        },
        merge, cancel);
    return finish(merged);
  }

  // Otherwise each block answers its worlds in groups of their own size.
  struct BlockCounts : AnswerCounts {
    Status error;
  };
  const BlockCounts merged = exec::ParallelReduce<BlockCounts>(
      pool, num_blocks, BlockCounts{},
      [&](size_t block) {
        BlockCounts result;
        GroupAnswerer answerer(query.get(), &fact_of,
                               instance.universe().size());
        std::vector<size_t> members;
        draw_block(block, [&](const WorldSampler::DrawnWorld& world) {
          sampler.ListMembers(world, &members);
          result.error = answerer.Add(members, &result);
          return result.error.ok();
        });
        if (result.error.ok()) result.error = answerer.Flush(&result);
        return result;
      },
      merge, cancel);
  return finish(merged);
}

// The CQ overloads install the scope around compilation too, so the
// eval.plans_compiled counter (and friends) lands on the query; the
// algebra overloads re-install the same scope, which nests harmlessly.

Result<QueryAnswer> QuerySystem::AnswerExact(
    const ConjunctiveQuery& query, const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerExact(plan, domain);
}

Result<QueryAnswer> QuerySystem::AnswerCompositional(
    const ConjunctiveQuery& query, const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerCompositional(plan, domain);
}

Result<QueryAnswer> QuerySystem::AnswerMonteCarlo(
    const ConjunctiveQuery& query, const std::vector<Value>& domain,
    uint64_t samples, uint64_t seed) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerMonteCarlo(plan, domain, samples, seed);
}

}  // namespace psc
