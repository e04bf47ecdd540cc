#include "psc/consistency/hitting_set.h"

#include <algorithm>
#include <set>
#include <utility>

#include "psc/consistency/identity_consistency.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {

Status HittingSetInstance::Validate() const {
  if (universe_size < 0) return Status::InvalidArgument("negative universe");
  if (budget < 0) return Status::InvalidArgument("negative budget");
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (subsets[i].empty()) {
      return Status::InvalidArgument(
          StrCat("subset A", i + 1, " is empty and can never be hit"));
    }
    std::set<int64_t> seen;
    for (const int64_t element : subsets[i]) {
      if (element < 0 || element >= universe_size) {
        return Status::InvalidArgument(
            StrCat("element ", element, " of subset A", i + 1,
                   " outside the universe [0, ", universe_size, ")"));
      }
      if (!seen.insert(element).second) {
        return Status::InvalidArgument(
            StrCat("duplicate element ", element, " in subset A", i + 1));
      }
    }
  }
  return Status::OK();
}

bool HittingSetInstance::IsHsStar() const {
  return !subsets.empty() && subsets.back().size() == 1;
}

std::string HittingSetInstance::ToString() const {
  std::vector<std::string> parts;
  for (const std::vector<int64_t>& subset : subsets) {
    std::vector<std::string> elements;
    elements.reserve(subset.size());
    for (const int64_t element : subset) {
      elements.push_back(std::to_string(element));
    }
    parts.push_back(StrCat("{", Join(elements, ","), "}"));
  }
  return StrCat("HS(|S|=", universe_size, ", K=", budget, ", C=[",
                Join(parts, ", "), "])");
}

namespace {

class BranchAndBound {
 public:
  BranchAndBound(const HittingSetInstance& instance, limits::Budget budget)
      : instance_(instance), budget_(std::move(budget)) {}

  Result<HittingSetSolution> Run() {
    HittingSetSolution solution;
    PSC_ASSIGN_OR_RETURN(solution.solvable, Recurse());
    if (solution.solvable) {
      solution.hitting_set.assign(chosen_.begin(), chosen_.end());
    }
    solution.nodes_expanded = nodes_;
    return solution;
  }

 private:
  Result<bool> Recurse() {
    ++nodes_;
    if (!budget_.Charge()) return budget_.ToStatus();
    // Pick the smallest subset not yet hit (fail-first branching).
    const std::vector<int64_t>* target = nullptr;
    for (const std::vector<int64_t>& subset : instance_.subsets) {
      bool hit = false;
      for (const int64_t element : subset) {
        if (chosen_.count(element) > 0) {
          hit = true;
          break;
        }
      }
      if (hit) continue;
      if (target == nullptr || subset.size() < target->size()) {
        target = &subset;
      }
    }
    if (target == nullptr) return true;  // everything hit
    if (static_cast<int64_t>(chosen_.size()) >= instance_.budget) {
      return false;  // cannot afford another element
    }
    for (const int64_t element : *target) {
      chosen_.insert(element);
      PSC_ASSIGN_OR_RETURN(const bool solved, Recurse());
      if (solved) return true;
      chosen_.erase(element);
    }
    return false;
  }

  const HittingSetInstance& instance_;
  const limits::Budget budget_;
  std::set<int64_t> chosen_;
  uint64_t nodes_ = 0;
};

}  // namespace

Result<HittingSetSolution> SolveHittingSet(const HittingSetInstance& instance,
                                           const limits::Budget& budget) {
  PSC_OBS_SPAN("hitting_set.solve");
  PSC_RETURN_NOT_OK(instance.Validate());
  BranchAndBound solver(instance, budget);
  PSC_ASSIGN_OR_RETURN(HittingSetSolution solution, solver.Run());
  PSC_OBS_COUNTER_ADD("hitting_set.nodes_expanded", solution.nodes_expanded);
  return solution;
}

HittingSetInstance ReduceHsToHsStar(const HittingSetInstance& instance) {
  HittingSetInstance star = instance;
  const int64_t fresh = star.universe_size;
  star.universe_size += 1;
  star.subsets.push_back({fresh});
  star.budget += 1;
  return star;
}

Result<SourceCollection> ReduceHsStarToConsistency(
    const HittingSetInstance& instance) {
  PSC_OBS_SPAN("hitting_set.reduce");
  PSC_OBS_COUNTER_INC("hitting_set.reductions");
  PSC_RETURN_NOT_OK(instance.Validate());
  if (!instance.IsHsStar()) {
    return Status::InvalidArgument(
        "instance does not satisfy the HS* promise (last subset must be a "
        "singleton)");
  }
  if (instance.budget < 1) {
    return Status::InvalidArgument(
        "HS* instances need budget K >= 1 (the singleton subset must be "
        "hit)");
  }
  std::vector<SourceDescriptor> sources;
  sources.reserve(instance.subsets.size());
  for (size_t i = 0; i < instance.subsets.size(); ++i) {
    const std::vector<int64_t>& subset = instance.subsets[i];
    Relation extension;
    for (const int64_t element : subset) {
      extension.insert(Tuple{Value(element)});
    }
    PSC_ASSIGN_OR_RETURN(
        SourceDescriptor source,
        SourceDescriptor::Create(
            StrCat("S", i + 1), ConjunctiveQuery::Identity("R", 1),
            std::move(extension),
            /*completeness=*/Rational(1, instance.budget),
            /*soundness=*/Rational(1, static_cast<int64_t>(subset.size()))));
    sources.push_back(std::move(source));
  }
  return SourceCollection::Create(std::move(sources));
}

Result<HittingSetSolution> SolveHittingSetViaConsistency(
    const HittingSetInstance& instance) {
  PSC_RETURN_NOT_OK(instance.Validate());
  const HittingSetInstance star = ReduceHsToHsStar(instance);
  PSC_ASSIGN_OR_RETURN(const SourceCollection collection,
                       ReduceHsStarToConsistency(star));
  PSC_ASSIGN_OR_RETURN(const IdentityConsistencyReport report,
                       CheckIdentityConsistency(collection));
  HittingSetSolution solution;
  solution.nodes_expanded = report.visited_shapes;
  solution.solvable = report.consistent;
  PSC_OBS_COUNTER_ADD("hitting_set.nodes_expanded", solution.nodes_expanded);
  if (!report.consistent) return solution;

  // Map the witness world back: A = {a : R(a) ∈ D}, minus the fresh element
  // introduced by the HS → HS* step (Lemma 3.3).
  PSC_CHECK(report.witness.has_value());
  const int64_t fresh = instance.universe_size;
  for (const Fact& fact : report.witness->AllFacts()) {
    const int64_t element = fact.tuple()[0].AsInt();
    if (element != fresh) solution.hitting_set.push_back(element);
  }
  std::sort(solution.hitting_set.begin(), solution.hitting_set.end());
  return solution;
}

}  // namespace psc
