#include "psc/rewriting/bucket_rewriter.h"

#include <map>
#include <set>

#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/rewriting/containment.h"
#include "psc/tableau/tableau.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

/// One bucket entry: source `source` can cover the subgoal through body
/// atom `body_atom`, with view variables bound to query terms by `psi`.
struct Usage {
  size_t source = 0;
  Substitution psi;  // view variable → query term
};

/// Query variables that must be exposed through view heads: head
/// variables plus variables occurring in more than one relational subgoal
/// (join variables) plus variables used by built-ins.
std::set<std::string> SharedQueryVariables(const ConjunctiveQuery& query) {
  std::set<std::string> shared = query.head().Variables();
  std::map<std::string, int> subgoal_counts;
  for (const Atom& atom : query.relational_body()) {
    for (const std::string& var : atom.Variables()) {
      ++subgoal_counts[var];
    }
  }
  for (const auto& [var, count] : subgoal_counts) {
    if (count > 1) shared.insert(var);
  }
  for (const Atom& builtin : query.builtin_body()) {
    for (const std::string& var : builtin.Variables()) shared.insert(var);
  }
  return shared;
}

/// Tries to cover query subgoal `goal` with `body_atom` of `view`.
std::optional<Usage> TryCover(const ConjunctiveQuery& query,
                              const Atom& goal, size_t source_index,
                              const ConjunctiveQuery& view,
                              const Atom& body_atom,
                              const std::set<std::string>& shared) {
  if (body_atom.predicate() != goal.predicate() ||
      body_atom.arity() != goal.arity()) {
    return std::nullopt;
  }
  const std::set<std::string> distinguished = view.head().Variables();
  Usage usage;
  usage.source = source_index;
  for (size_t pos = 0; pos < goal.arity(); ++pos) {
    const Term& query_term = goal.terms()[pos];
    const Term& view_term = body_atom.terms()[pos];
    if (view_term.is_constant()) {
      // The view fixes this column; a differing query constant can never
      // match. A query variable is fine (the expansion is more specific,
      // which containment checking will confirm).
      if (query_term.is_constant() &&
          query_term.constant() != view_term.constant()) {
        return std::nullopt;
      }
      continue;
    }
    const bool exposed = distinguished.count(view_term.var_name()) > 0;
    if (!exposed) {
      // An existential view variable can only absorb a query variable
      // that is local to this subgoal (not joined, projected or
      // filtered) — otherwise the binding is lost behind the view head.
      if (query_term.is_constant() ||
          shared.count(query_term.var_name()) > 0) {
        return std::nullopt;
      }
    }
    auto [it, inserted] = usage.psi.emplace(view_term.var_name(), query_term);
    if (!inserted && it->second != query_term) return std::nullopt;
  }
  (void)query;
  return usage;
}

}  // namespace

BucketRewriter::BucketRewriter(const SourceCollection* collection)
    : collection_(collection) {
  PSC_CHECK(collection_ != nullptr);
}

Result<std::vector<Rewriting>> BucketRewriter::Rewrite(
    const ConjunctiveQuery& query) const {
  PSC_OBS_SPAN("rewriting.rewrite");
  const std::set<std::string> shared = SharedQueryVariables(query);
  const std::vector<Atom>& subgoals = query.relational_body();
  if (subgoals.empty()) {
    return Status::Unimplemented(
        "rewriting requires at least one relational subgoal");
  }

  // Build the buckets.
  std::vector<std::vector<Usage>> buckets(subgoals.size());
  for (size_t g = 0; g < subgoals.size(); ++g) {
    for (size_t i = 0; i < collection_->size(); ++i) {
      const ConjunctiveQuery& view = collection_->source(i).view();
      for (const Atom& body_atom : view.relational_body()) {
        std::optional<Usage> usage =
            TryCover(query, subgoals[g], i, view, body_atom, shared);
        if (usage.has_value()) {
          PSC_OBS_COUNTER_INC("rewriting.buckets_filled");
          buckets[g].push_back(std::move(*usage));
        }
      }
    }
    if (buckets[g].empty()) return std::vector<Rewriting>{};  // uncoverable
  }

  // Combine one usage per bucket.
  std::vector<Rewriting> rewritings;
  std::set<std::set<Atom>> seen_bodies;
  std::vector<size_t> choice(subgoals.size(), 0);
  uint64_t visited = 0;
  while (true) {
    if (++visited > kMaxCandidates) break;
    PSC_OBS_COUNTER_INC("rewriting.candidates_tried");

    // Assemble the candidate's body atoms (one per usage, deduplicated)
    // and its expansion.
    std::vector<Atom> body;
    std::vector<size_t> sources_used;
    std::vector<Atom> expansion_body;
    std::set<Atom> body_set;
    bool viable = true;
    for (size_t g = 0; g < subgoals.size() && viable; ++g) {
      const Usage& usage = buckets[g][choice[g]];
      const SourceDescriptor& source = collection_->source(usage.source);
      const ConjunctiveQuery& view = source.view();
      // Head atom over the (unique) source name; unmapped head variables
      // become fresh variables scoped per (subgoal, source).
      Substitution head_subst = usage.psi;
      for (const std::string& var : view.Variables()) {
        if (head_subst.count(var) == 0) {
          head_subst[var] =
              Term::Var(StrCat("$r", g, "_", usage.source, "_", var));
        }
      }
      const Atom head_atom =
          ApplySubstitution(Atom(source.name(), view.head().terms()),
                            head_subst);
      if (body_set.insert(head_atom).second) {
        body.push_back(head_atom);
        sources_used.push_back(usage.source);
        // The expansion inlines the view body under the same renaming.
        for (const Atom& atom : view.body()) {
          expansion_body.push_back(ApplySubstitution(atom, head_subst));
        }
      }
    }

    if (viable) {
      auto over_views = ConjunctiveQuery::Create(query.head(), body);
      auto expansion =
          ConjunctiveQuery::Create(query.head(), expansion_body);
      if (over_views.ok() && expansion.ok() &&
          seen_bodies.insert(body_set).second) {
        auto contained = IsContainedIn(*expansion, query);
        if (!contained.ok()) return contained.status();
        if (*contained) {
          PSC_OBS_COUNTER_INC("rewriting.rewritings_emitted");
          rewritings.push_back(Rewriting{std::move(*over_views),
                                         std::move(*expansion),
                                         std::move(sources_used)});
        }
      }
    }

    // Advance the odometer over bucket choices.
    size_t g = subgoals.size();
    bool advanced = false;
    while (g-- > 0) {
      if (++choice[g] < buckets[g].size()) {
        advanced = true;
        break;
      }
      choice[g] = 0;
    }
    if (!advanced) break;
  }
  return rewritings;
}

Result<Relation> BucketRewriter::EvaluateOverExtensions(
    const Rewriting& rewriting) const {
  Database views_db;
  for (const size_t index : rewriting.sources) {
    const SourceDescriptor& source = collection_->source(index);
    for (const Tuple& tuple : source.extension()) {
      views_db.AddFact(source.name(), tuple);
    }
  }
  return rewriting.over_views.Evaluate(views_db);
}

Result<Relation> BucketRewriter::AnswerUsingViews(
    const ConjunctiveQuery& query) const {
  PSC_ASSIGN_OR_RETURN(const std::vector<Rewriting> rewritings,
                       Rewrite(query));
  Relation answer;
  for (const Rewriting& rewriting : rewritings) {
    PSC_ASSIGN_OR_RETURN(const Relation partial,
                         EvaluateOverExtensions(rewriting));
    answer.insert(partial.begin(), partial.end());
  }
  return answer;
}

}  // namespace psc
