#ifndef PSC_CORE_QUERY_SYSTEM_H_
#define PSC_CORE_QUERY_SYSTEM_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psc/algebra/expression.h"
#include "psc/algebra/prob_relation.h"
#include "psc/consistency/general_consistency.h"
#include "psc/counting/confidence.h"
#include "psc/limits/budget.h"
#include "psc/obs/scope.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Answer to a query over a source collection, under the Section 5
/// semantics.
struct QueryAnswer {
  /// Tuple → confidence_Q(t) = Pr(t ∈ Q(D) | D ∈ poss(S)). Exact for the
  /// "exact" method, compositional (Definition 5.1) or estimated otherwise.
  ProbRelation confidences;
  /// Q₊(S) = ⋂_D Q(D) — the certain answer.
  Relation certain;
  /// Q*(S) = ⋃_D Q(D) — the possible answer.
  Relation possible;
  /// Possible worlds evaluated (exact) or sampled (Monte Carlo).
  uint64_t worlds_used = 0;
  /// "exact-enumeration", "compositional", "monte-carlo".
  std::string method;
  /// True when a resource budget (deadline / node budget) cut the
  /// computation short and the answer is a well-formed partial result —
  /// today only Monte-Carlo, which returns the samples drawn so far.
  bool truncated = false;
  /// Why the answer was truncated, when it was.
  std::string truncation_reason;
  /// True when the answer was served from a delta-aware cache without
  /// recomputation (see psc/delta/incremental.h); always false for answers
  /// computed directly by QuerySystem.
  bool from_cache = false;
};

/// \brief The user-facing facade: a source collection plus query answering,
/// consistency checking and confidence computation.
///
/// Typical flow:
///
///   auto system = QuerySystem::Create(ParseCollection(text).value());
///   auto report = system->CheckConsistency();
///   auto answer = system->AnswerExact(plan, domain);
class QuerySystem {
 public:
  struct Options {
    uint64_t max_shapes = uint64_t{1} << 26;
    uint64_t max_worlds = uint64_t{1} << 22;
    /// Universe-size cap (bits) for brute-force fallbacks on non-identity
    /// collections.
    size_t max_universe_bits = 22;
    /// Worker threads for consistency search, exact counting and
    /// Monte-Carlo sampling. 0 (the default) resolves via the PSC_THREADS
    /// environment variable, falling back to hardware_concurrency(); 1
    /// runs every path sequentially on the calling thread. Verdicts,
    /// exact counts, confidences and Monte-Carlo estimates are
    /// bit-identical for every thread count (see AnswerMonteCarlo).
    size_t threads = 0;
    /// Route conjunctive-query evaluation through compiled slot-based join
    /// plans with lazy hash indexes (see relational/query_plan.h). false
    /// selects the legacy nested-loop interpreter (CLI:
    /// `--no-compiled-eval`) for differential testing. NOTE: the switch is
    /// process-global — Create applies it via
    /// eval::SetCompiledEvalEnabled, affecting every evaluation, not just
    /// this system's. Both engines produce identical results.
    bool use_compiled_eval = true;
    /// Wall-clock deadline in milliseconds for each entry point (0 = no
    /// deadline; CLI: `--deadline-ms`). Every call builds a fresh budget,
    /// so the deadline applies per call, not per system. On expiry,
    /// consistency checks degrade to kUnknown, Monte-Carlo returns a
    /// truncated partial answer, and exact counting/enumeration fails
    /// with Status::DeadlineExceeded. With both limits at 0 (the default)
    /// no budget is threaded anywhere and all results are bit-identical
    /// to the unlimited build.
    int64_t deadline_ms = 0;
    /// Explored-node budget shared by all workers of one call (0 = no
    /// budget; CLI: `--node-budget`). Nodes are the solvers' natural work
    /// units: count-vector tree nodes, DP states, allowable combinations,
    /// brute-force subsets, Monte-Carlo samples.
    uint64_t node_budget = 0;
    /// External cancellation for every call made through this system: the
    /// per-call budgets adopt this token, so one `Cancel()` (a server
    /// draining for shutdown, the CLI's signal handler) revokes all
    /// in-flight and future work with the usual graceful degradation
    /// (kUnknown verdicts / truncated answers / DeadlineExceeded).
    /// Unset (the default): calls are revocable only via their own limits.
    std::optional<limits::CancelToken> cancel;
    /// Per-query telemetry scope (see obs/scope.h). Every entry point
    /// installs it for the duration of the call — workers included, via
    /// exec's trace propagation — so metric deltas, trace spans and any
    /// limits trip attribute to this query. The default null scope keeps
    /// the historical global-only accounting at zero extra cost.
    obs::Scope scope;
  };

  /// Builds a system over `collection`.
  static Result<QuerySystem> Create(SourceCollection collection);
  static Result<QuerySystem> Create(SourceCollection collection,
                                    Options options);

  const SourceCollection& collection() const { return collection_; }

  /// \brief Decides whether poss(S) ≠ ∅ (Section 3), choosing the best
  /// strategy for the collection's shape.
  Result<ConsistencyReport> CheckConsistency() const;

  /// \brief Section 5.1: exact confidences for every base fact over the
  /// fact universe dom^arity. Identity-view collections only.
  Result<ConfidenceTable> BaseConfidences(
      const std::vector<Value>& domain) const;

  /// \brief Exact query answering by possible-world enumeration:
  /// certain/possible answers and exact confidences. Exponential; bounded
  /// by Options::max_worlds. Works for identity collections over `domain`
  /// (group enumeration) and falls back to brute force otherwise. The
  /// query is evaluated with lineage (AlgebraExpr::EvalLineage) over
  /// groups of consecutive worlds; each world is then answered from its
  /// fact ids.
  Result<QueryAnswer> AnswerExact(const AlgebraExprPtr& query,
                                  const std::vector<Value>& domain) const;

  /// \brief Definition 5.1 compositional answering: exact base confidences
  /// feed the π/σ/× confidence propagation. Fast, but the confidences of
  /// derived tuples assume independence (see Theorem 5.1 and experiment
  /// E5). Certain/possible sets are derived from confidences (= 1 / > 0).
  Result<QueryAnswer> AnswerCompositional(
      const AlgebraExprPtr& query, const std::vector<Value>& domain) const;

  /// \brief Monte-Carlo answering: `samples` exact-uniform worlds from
  /// poss(S); confidences are sample frequencies. The certain/possible
  /// sets are *estimates* (tuples seen in every / any sampled world).
  ///
  /// Sample block b (64 samples) draws from Rng(MixSeed(seed, b)), so the
  /// estimate depends only on (seed, samples), never on the thread count.
  /// The call's deadline and node budget cover the sampler build (capped
  /// at Options::max_shapes shapes) as well as the draws: a trip before
  /// the first sample fails with the budget's status, a later one returns
  /// the samples drawn so far flagged `truncated`.
  Result<QueryAnswer> AnswerMonteCarlo(const AlgebraExprPtr& query,
                                       const std::vector<Value>& domain,
                                       uint64_t samples, uint64_t seed) const;

  /// \name Conjunctive-query overloads
  ///
  /// Accept the paper's query notation directly; the query is compiled
  /// into an algebra plan (see plan_compiler.h) and dispatched to the
  /// corresponding method above.
  /// @{
  Result<QueryAnswer> AnswerExact(const ConjunctiveQuery& query,
                                  const std::vector<Value>& domain) const;
  Result<QueryAnswer> AnswerCompositional(
      const ConjunctiveQuery& query, const std::vector<Value>& domain) const;
  Result<QueryAnswer> AnswerMonteCarlo(const ConjunctiveQuery& query,
                                       const std::vector<Value>& domain,
                                       uint64_t samples, uint64_t seed) const;
  /// @}

 private:
  QuerySystem(SourceCollection collection, Options options)
      : collection_(std::move(collection)), options_(options) {}

  SourceCollection collection_;
  Options options_;
};

}  // namespace psc

#endif  // PSC_CORE_QUERY_SYSTEM_H_
