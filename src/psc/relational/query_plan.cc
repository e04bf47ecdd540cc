#include "psc/relational/query_plan.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "psc/exec/memo_cache.h"
#include "psc/obs/metrics.h"
#include "psc/relational/builtin.h"
#include "psc/relational/eval_index.h"
#include "psc/util/string_util.h"

namespace psc {
namespace eval {

namespace {

using PlanCache = exec::ShardedMemoCache<std::shared_ptr<const QueryPlan>>;

PlanCache& GlobalPlanCache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

/// True iff `name` occurs as a variable in some relational body atom (the
/// only variables a plan assigns slots to; head and built-in variables are
/// a subset by the Create-time safety checks).
bool IsQueryVariable(const ConjunctiveQuery& query, const std::string& name) {
  for (const Atom& atom : query.relational_body()) {
    for (const Term& term : atom.terms()) {
      if (term.is_variable() && term.var_name() == name) return true;
    }
  }
  return false;
}

std::string PlanKey(const ConjunctiveQuery& query,
                    const std::vector<std::string>& bound_vars) {
  std::string key = query.ToString();
  key.push_back('\n');
  for (const std::string& name : bound_vars) {
    key += name;
    key.push_back(',');
  }
  return key;
}

}  // namespace

std::shared_ptr<const QueryPlan> QueryPlan::Compile(
    const ConjunctiveQuery& query,
    const std::vector<std::string>& bound_vars) {
  std::shared_ptr<QueryPlan> plan(new QueryPlan());
  const std::vector<Atom>& atoms = query.relational_body();

  // --- Slot assignment: caller-bound variables first, then first
  // occurrence order over the body atoms.
  std::map<std::string, uint32_t> slot_of;
  const auto assign_slot = [&](const std::string& name) -> uint32_t {
    const auto [it, inserted] =
        slot_of.emplace(name, static_cast<uint32_t>(plan->slot_names_.size()));
    if (inserted) plan->slot_names_.push_back(name);
    return it->second;
  };
  for (const std::string& name : bound_vars) {
    if (!IsQueryVariable(query, name) || slot_of.count(name) > 0) continue;
    plan->prebound_.emplace_back(name, assign_slot(name));
  }
  for (const Atom& atom : atoms) {
    for (const Term& term : atom.terms()) {
      if (term.is_variable()) assign_slot(term.var_name());
    }
  }

  // --- Greedy bound-variable join ordering: at each step pick the atom
  // with the most positions already determined (constants + bound slots);
  // ties keep the original body order for determinism.
  std::vector<bool> used(atoms.size(), false);
  std::vector<bool> slot_bound(plan->slot_names_.size(), false);
  for (const auto& [name, slot] : plan->prebound_) {
    (void)name;
    slot_bound[slot] = true;
  }
  const auto bound_positions = [&](const Atom& atom) {
    size_t count = 0;
    for (const Term& term : atom.terms()) {
      if (term.is_constant() || slot_bound[slot_of.at(term.var_name())]) {
        ++count;
      }
    }
    return count;
  };
  for (size_t k = 0; k < atoms.size(); ++k) {
    size_t best = atoms.size();
    size_t best_score = 0;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (used[i]) continue;
      const size_t score = bound_positions(atoms[i]);
      if (best == atoms.size() || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    used[best] = true;
    plan->join_order_.push_back(best);

    // --- Compile the chosen atom into one join step.
    const Atom& atom = atoms[best];
    AtomStep step;
    step.predicate = atom.predicate();
    step.arity = static_cast<uint32_t>(atom.arity());
    std::set<uint32_t> bound_here;  // slots first bound at an earlier position
    for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
      const Term& term = atom.terms()[pos];
      PositionOp op;
      op.pos = pos;
      bool probeable = false;
      if (term.is_constant()) {
        op.kind = PositionOp::kConstCheck;
        op.value = term.constant();
        probeable = true;
      } else {
        op.slot = slot_of.at(term.var_name());
        if (slot_bound[op.slot]) {
          op.kind = PositionOp::kSlotCheck;
          probeable = true;  // bound before the step: part of the probe key
        } else if (bound_here.count(op.slot) > 0) {
          // Repeated variable within the atom: the earlier position binds,
          // this one checks — but the slot is only bound mid-tuple, so it
          // cannot join the probe key.
          op.kind = PositionOp::kSlotCheck;
        } else {
          op.kind = PositionOp::kBind;
          bound_here.insert(op.slot);
        }
      }
      step.scan_ops.push_back(op);
      if (probeable) {
        step.probe_positions.push_back(pos);
        ValueRef ref;
        ref.is_const = term.is_constant();
        if (ref.is_const) {
          ref.value = term.constant();
        } else {
          ref.slot = op.slot;
        }
        step.key_refs.push_back(std::move(ref));
      } else {
        step.probe_ops.push_back(op);
      }
    }
    for (const uint32_t slot : bound_here) slot_bound[slot] = true;
    plan->steps_.push_back(std::move(step));
  }

  // --- Built-in hoisting: each built-in runs at the earliest step depth
  // at which all of its arguments are bound.
  plan->builtins_at_step_.resize(plan->steps_.size() + 1);
  // Depth at which each slot becomes bound: 0 for prebound, d+1 for slots
  // first bound by the step at order position d.
  std::vector<size_t> bound_depth(plan->slot_names_.size(), 0);
  {
    std::vector<bool> seen(plan->slot_names_.size(), false);
    for (const auto& [name, slot] : plan->prebound_) {
      (void)name;
      seen[slot] = true;
    }
    for (size_t d = 0; d < plan->steps_.size(); ++d) {
      for (const PositionOp& op : plan->steps_[d].scan_ops) {
        if (op.kind == PositionOp::kBind && !seen[op.slot]) {
          seen[op.slot] = true;
          bound_depth[op.slot] = d + 1;
        }
      }
    }
  }
  for (const Atom& atom : query.builtin_body()) {
    BuiltinCheck check;
    check.predicate = atom.predicate();
    size_t depth = 0;
    for (const Term& term : atom.terms()) {
      ValueRef ref;
      ref.is_const = term.is_constant();
      if (ref.is_const) {
        ref.value = term.constant();
      } else {
        ref.slot = slot_of.at(term.var_name());
        depth = std::max(depth, bound_depth[ref.slot]);
      }
      check.args.push_back(std::move(ref));
    }
    plan->builtins_at_step_[depth].push_back(std::move(check));
  }

  // --- Emission tables.
  for (const auto& [name, slot] : slot_of) {
    plan->output_by_name_.emplace_back(name, slot);
  }
  for (const Term& term : query.head().terms()) {
    ValueRef ref;
    ref.is_const = term.is_constant();
    if (ref.is_const) {
      ref.value = term.constant();
    } else {
      ref.slot = slot_of.at(term.var_name());
    }
    plan->head_refs_.push_back(std::move(ref));
  }

  PSC_OBS_COUNTER_INC("eval.plans_compiled");
  return plan;
}

/// Per-execution mutable state: one flat frame reused across the whole
/// enumeration plus per-step scratch (probe keys, resolved indexes).
struct QueryPlan::ExecState {
  std::vector<Value> frame;
  std::vector<Tuple> key_scratch;
  /// Index handles resolved once per execution per step (the database and
  /// its generation are fixed for the duration of a const evaluation).
  std::vector<std::shared_ptr<const RelationIndex>> step_index;
  std::vector<Value> builtin_args;
  const std::function<Result<bool>(const std::vector<Value>&)>* sink = nullptr;
  uint64_t binds = 0;
};

bool QueryPlan::ApplyOps(const std::vector<PositionOp>& ops,
                         const Tuple& tuple, std::vector<Value>& frame) {
  for (const PositionOp& op : ops) {
    switch (op.kind) {
      case PositionOp::kConstCheck:
        if (tuple[op.pos] != op.value) return false;
        break;
      case PositionOp::kSlotCheck:
        if (tuple[op.pos] != frame[op.slot]) return false;
        break;
      case PositionOp::kBind:
        frame[op.slot] = tuple[op.pos];
        break;
    }
  }
  return true;
}

Result<bool> QueryPlan::RunStep(size_t step, const Database& db,
                                ExecState& state) const {
  // Built-ins whose arguments just became fully bound filter this branch
  // before any deeper scan.
  for (const BuiltinCheck& check : builtins_at_step_[step]) {
    state.builtin_args.clear();
    for (const ValueRef& ref : check.args) {
      state.builtin_args.push_back(ref.is_const ? ref.value
                                                : state.frame[ref.slot]);
    }
    PSC_ASSIGN_OR_RETURN(const bool holds,
                         EvalBuiltin(check.predicate, state.builtin_args));
    if (!holds) return true;  // prune this branch, keep searching
  }
  if (step == steps_.size()) return (*state.sink)(state.frame);

  const AtomStep& s = steps_[step];
  const Relation& relation = db.GetRelation(s.predicate);
  if (!s.probe_positions.empty() &&
      relation.size() >= kMinIndexedRelationSize) {
    PSC_OBS_COUNTER_INC("eval.probes");
    std::shared_ptr<const RelationIndex>& index = state.step_index[step];
    if (index == nullptr) {
      index = db.index_cache().GetOrBuild(relation,
                                          db.relation_generation(s.predicate),
                                          s.predicate, s.arity,
                                          s.probe_positions);
    }
    Tuple& key = state.key_scratch[step];
    key.clear();
    for (const ValueRef& ref : s.key_refs) {
      key.push_back(ref.is_const ? ref.value : state.frame[ref.slot]);
    }
    const std::vector<const Tuple*>* bucket = index->Find(key);
    if (bucket == nullptr) return true;
    for (const Tuple* tuple : *bucket) {
      state.binds += s.probe_ops.size();
      if (!ApplyOps(s.probe_ops, *tuple, state.frame)) continue;
      auto deeper = RunStep(step + 1, db, state);
      if (!deeper.ok()) return deeper;
      if (!*deeper) return false;
    }
    return true;
  }

  PSC_OBS_COUNTER_INC("eval.scans");
  for (const Tuple& tuple : relation) {
    if (tuple.size() != s.arity) continue;
    state.binds += s.scan_ops.size();
    if (!ApplyOps(s.scan_ops, tuple, state.frame)) continue;
    auto deeper = RunStep(step + 1, db, state);
    if (!deeper.ok()) return deeper;
    if (!*deeper) return false;
  }
  return true;
}

Result<bool> QueryPlan::ForEach(
    const Database& db, const Valuation& initial,
    const std::function<bool(const Valuation&)>& fn) const {
  ExecState state;
  state.frame.assign(slot_names_.size(), Value());
  state.key_scratch.resize(steps_.size());
  state.step_index.resize(steps_.size());

  // Load the caller's bindings: query variables fill their slots (the plan
  // must have been compiled for exactly this bound set — GetOrCompilePlan
  // guarantees it); foreign variables pass through into every emitted
  // valuation.
  std::map<std::string, uint32_t> prebound(prebound_.begin(), prebound_.end());
  Valuation extras;
  for (const auto& [name, value] : initial) {
    const auto it = prebound.find(name);
    if (it != prebound.end()) {
      state.frame[it->second] = value;
    } else if (IsVariable(name)) {
      return Status::InvalidArgument(
          StrCat("plan was not compiled with '", name,
                 "' initially bound; use GetOrCompilePlan"));
    } else {
      extras.emplace(name, value);
    }
  }

  const std::function<Result<bool>(const std::vector<Value>&)> sink =
      [&](const std::vector<Value>& frame) -> Result<bool> {
    // Merge the (name-sorted) slot outputs with the pass-through bindings;
    // both ranges are sorted and disjoint, so hinted insertion is linear.
    Valuation valuation;
    auto out = output_by_name_.begin();
    auto extra = extras.begin();
    while (out != output_by_name_.end() || extra != extras.end()) {
      if (extra == extras.end() ||
          (out != output_by_name_.end() && out->first < extra->first)) {
        valuation.emplace_hint(valuation.end(), out->first,
                               frame[out->second]);
        ++out;
      } else {
        valuation.emplace_hint(valuation.end(), extra->first, extra->second);
        ++extra;
      }
    }
    return fn(valuation);
  };
  state.sink = &sink;

  PSC_OBS_COUNTER_INC("eval.execs.compiled");
  auto result = RunStep(0, db, state);
  PSC_OBS_COUNTER_ADD("eval.frame.binds", state.binds);
  return result;
}

Result<Relation> QueryPlan::Evaluate(const Database& db) const {
  if (!prebound_.empty()) {
    return Status::Internal(
        "Evaluate requires a plan compiled without initial bindings");
  }
  Relation result;
  ExecState state;
  state.frame.assign(slot_names_.size(), Value());
  state.key_scratch.resize(steps_.size());
  state.step_index.resize(steps_.size());
  const std::function<Result<bool>(const std::vector<Value>&)> sink =
      [&](const std::vector<Value>& frame) -> Result<bool> {
    Tuple tuple;
    tuple.reserve(head_refs_.size());
    for (const ValueRef& ref : head_refs_) {
      tuple.push_back(ref.is_const ? ref.value : frame[ref.slot]);
    }
    result.insert(std::move(tuple));
    return true;
  };
  state.sink = &sink;
  PSC_OBS_COUNTER_INC("eval.execs.compiled");
  PSC_RETURN_NOT_OK(RunStep(0, db, state).status());
  PSC_OBS_COUNTER_ADD("eval.frame.binds", state.binds);
  return result;
}

size_t QueryPlan::num_probe_steps() const {
  size_t count = 0;
  for (const AtomStep& step : steps_) {
    if (!step.probe_positions.empty()) ++count;
  }
  return count;
}

bool QueryPlan::IsVariable(const std::string& name) const {
  for (const std::string& slot_name : slot_names_) {
    if (slot_name == name) return true;
  }
  return false;
}

std::string QueryPlan::DebugString() const {
  std::vector<std::string> lines;
  for (size_t d = 0; d < steps_.size(); ++d) {
    const AtomStep& step = steps_[d];
    std::vector<std::string> probe;
    for (const uint32_t pos : step.probe_positions) {
      probe.push_back(std::to_string(pos));
    }
    lines.push_back(StrCat("step ", d, ": ", step.predicate, "/", step.arity,
                           probe.empty()
                               ? std::string(" scan")
                               : StrCat(" probe{", Join(probe, ","), "}")));
    for (const BuiltinCheck& check : builtins_at_step_[d]) {
      lines.push_back(StrCat("  builtin@", d, ": ", check.predicate));
    }
  }
  for (const BuiltinCheck& check : builtins_at_step_.back()) {
    lines.push_back(
        StrCat("  builtin@", steps_.size(), ": ", check.predicate));
  }
  return Join(lines, "\n");
}

std::shared_ptr<const QueryPlan> GetOrCompilePlan(const ConjunctiveQuery& query,
                                                  const Valuation& initial) {
  std::vector<std::string> bound_vars;
  for (const auto& [name, value] : initial) {
    (void)value;
    if (IsQueryVariable(query, name)) bound_vars.push_back(name);
  }
  const std::string key = PlanKey(query, bound_vars);
  if (auto cached = GlobalPlanCache().Lookup(key)) {
    PSC_OBS_COUNTER_INC("eval.plan_cache.hits");
    return *cached;
  }
  PSC_OBS_COUNTER_INC("eval.plan_cache.misses");
  auto plan = QueryPlan::Compile(query, bound_vars);
  const size_t evicted = GlobalPlanCache().Insert(key, plan);
  if (evicted > 0) {
    PSC_OBS_COUNTER_ADD("eval.plan_cache_evictions", evicted);
  }
  return plan;
}

void ClearQueryPlanCache() { GlobalPlanCache().Clear(); }

size_t QueryPlanCacheSize() { return GlobalPlanCache().size(); }

void SetQueryPlanCacheCapacity(size_t capacity) {
  const size_t evicted = GlobalPlanCache().SetCapacity(capacity);
  if (evicted > 0) {
    PSC_OBS_COUNTER_ADD("eval.plan_cache_evictions", evicted);
  }
}

size_t QueryPlanCacheCapacity() { return GlobalPlanCache().capacity(); }

}  // namespace eval
}  // namespace psc
