#ifndef PSC_RELATIONAL_QUERY_PLAN_H_
#define PSC_RELATIONAL_QUERY_PLAN_H_

/// \file
/// Compiled evaluation of conjunctive queries: slot-based join plans over
/// lazy hash indexes.
///
/// `ConjunctiveQuery::Evaluate` / `ForEachValuation` always run a
/// `QueryPlan`. Instead of a naive interpreter's full scan of each body
/// relation at every recursion depth with bindings in a string-keyed
/// `std::map`, a plan compiles the query once:
///
///  * every variable resolves to a dense integer slot; one flat
///    `std::vector<Value>` frame is reused for the entire enumeration;
///  * body atoms are reordered greedily so each join step arrives with as
///    many positions bound as possible (constants + variables bound by
///    earlier steps + the caller's initial bindings);
///  * a step with bound positions probes a lazy hash index
///    ((relation, arity, bound-position-set) → tuple buckets, cached on
///    the `Database`, invalidated by its generation counter — see
///    eval_index.h) instead of scanning;
///  * built-ins are hoisted to the earliest step at which their arguments
///    are bound and compiled to slot reads — no per-branch re-discovery.
///
/// Because the bound-position analysis is static, the compiled frame needs
/// no binding trail: a slot is only ever read at steps where it is
/// provably bound, so backtracking simply overwrites.
///
/// Determinism: join steps enumerate candidate tuples in the relation's
/// canonical sorted order (scans directly, probes via buckets that
/// preserve it), so a plan's valuation order is a deterministic function
/// of (query, initial bindings, database) — but not body-atom order,
/// because atoms are reordered. `Evaluate` is unaffected (results land in
/// a canonical `Relation` set); `WitnessValuations` sorts its output into
/// the canonical witness order.
///
/// Plans are memoized in a process-wide sharded cache keyed by the query's
/// canonical string plus the set of initially bound variables; see
/// `GetOrCompilePlan`. The differential tests check plans against a
/// nested-loop reference interpreter (tests/oracle/eval_oracle.h).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc {
namespace eval {

/// \brief A conjunctive query compiled for repeated evaluation.
///
/// Immutable after compilation and safe to share across threads; the only
/// mutable state an execution touches lives in its own stack frame and the
/// database's thread-safe index cache.
class QueryPlan {
 public:
  /// \brief Compiles `query`, treating `bound_vars` (query variables the
  /// caller will supply via the initial valuation) as bound from step 0.
  /// Names in `bound_vars` that are not query variables are ignored.
  static std::shared_ptr<const QueryPlan> Compile(
      const ConjunctiveQuery& query, const std::vector<std::string>& bound_vars);

  /// \brief Compiled counterpart of `ConjunctiveQuery::ForEachValuation`:
  /// enumerates every valuation extending `initial` that embeds the body
  /// into `db` and satisfies all built-ins. `initial` must bind exactly the
  /// query variables the plan was compiled with (plus any number of
  /// non-query variables, which pass through into each emitted valuation).
  /// Returns false iff `fn` stopped early.
  Result<bool> ForEach(const Database& db, const Valuation& initial,
                       const std::function<bool(const Valuation&)>& fn) const;

  /// \brief Compiled counterpart of `ConjunctiveQuery::Evaluate`: projects
  /// the head directly from the slot frame, never materializing valuations.
  Result<Relation> Evaluate(const Database& db) const;

  /// \name Introspection (tests, EXPLAIN-style debugging)
  /// @{
  size_t num_slots() const { return slot_names_.size(); }
  /// Indexes into `query.relational_body()`, in execution order.
  const std::vector<size_t>& join_order() const { return join_order_; }
  /// Steps that can probe an index (non-empty bound-position set).
  size_t num_probe_steps() const;
  /// "step 0: R(slot0, slot1) probe{0} | builtins@1: After(slot1, 1900)".
  std::string DebugString() const;
  /// @}

 private:
  QueryPlan() = default;

  /// How one tuple position interacts with the frame.
  struct PositionOp {
    enum Kind : uint8_t {
      kConstCheck,  ///< position must equal `value`
      kSlotCheck,   ///< position must equal frame[slot]
      kBind,        ///< frame[slot] = position value
    };
    Kind kind;
    uint32_t pos;
    uint32_t slot = 0;
    Value value;
  };

  /// One argument of a compiled built-in or head projection.
  struct ValueRef {
    bool is_const;
    uint32_t slot = 0;
    Value value;
  };

  struct BuiltinCheck {
    std::string predicate;
    std::vector<ValueRef> args;
  };

  struct AtomStep {
    std::string predicate;
    uint32_t arity;
    /// Ascending positions bound before the step runs (the index key).
    std::vector<uint32_t> probe_positions;
    /// Produces the probe key, parallel to `probe_positions`.
    std::vector<ValueRef> key_refs;
    /// Ops for the remaining positions, applied to each bucket candidate.
    std::vector<PositionOp> probe_ops;
    /// Ops for every position — the full-scan path.
    std::vector<PositionOp> scan_ops;
  };

  struct ExecState;

  Result<bool> RunStep(size_t step, const Database& db, ExecState& state) const;
  static bool ApplyOps(const std::vector<PositionOp>& ops, const Tuple& tuple,
                       std::vector<Value>& frame);
  /// True iff `name` is one of the plan's (query) variables.
  bool IsVariable(const std::string& name) const;

  std::vector<AtomStep> steps_;
  /// builtins_at_step_[d] runs once the first d join steps are bound
  /// (d == 0 runs before any join step).
  std::vector<std::vector<BuiltinCheck>> builtins_at_step_;
  /// Slot i holds the variable named slot_names_[i].
  std::vector<std::string> slot_names_;
  /// (name, slot) sorted by name — emission order for valuations.
  std::vector<std::pair<std::string, uint32_t>> output_by_name_;
  /// Query variables bound by the caller's initial valuation.
  std::vector<std::pair<std::string, uint32_t>> prebound_;
  /// Head projection for the Evaluate fast path.
  std::vector<ValueRef> head_refs_;
  std::vector<size_t> join_order_;
};

/// \brief The memoized plan for (`query`, initially bound variable set of
/// `initial`), compiling on first use. Thread-safe (sharded cache, same
/// design as the PR-2 containment memo).
std::shared_ptr<const QueryPlan> GetOrCompilePlan(const ConjunctiveQuery& query,
                                                  const Valuation& initial);

/// Drops every memoized plan (tests; not needed for correctness — plans
/// are database-independent).
void ClearQueryPlanCache();
size_t QueryPlanCacheSize();

/// \brief Caps the plan cache entry count (0 = unbounded, the default).
///
/// Long-lived processes (pscd) serve unbounded query streams, so the memo
/// must not grow without bound; over the cap the oldest plans are evicted
/// FIFO and recompiled on next use (correctness is unaffected — plans are
/// pure functions of the query text). Every eviction increments the
/// `eval.plan_cache_evictions` counter. Thread-safe.
void SetQueryPlanCacheCapacity(size_t capacity);
size_t QueryPlanCacheCapacity();

/// \brief Relations at least this large get a hash index when a probe is
/// possible; smaller extensions are scanned (a build would cost more than
/// it saves, and world-enumeration workloads churn tiny databases).
inline constexpr size_t kMinIndexedRelationSize = 16;

}  // namespace eval
}  // namespace psc

#endif  // PSC_RELATIONAL_QUERY_PLAN_H_
