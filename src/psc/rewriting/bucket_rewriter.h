#ifndef PSC_REWRITING_BUCKET_REWRITER_H_
#define PSC_REWRITING_BUCKET_REWRITER_H_

#include <cstdint>
#include <vector>

#include "psc/relational/conjunctive_query.h"
#include "psc/source/source_collection.h"
#include "psc/util/result.h"

namespace psc {

/// \brief A sound rewriting of a global-schema query over source views.
struct Rewriting {
  /// The rewriting itself: head(Q) ← S_{i₁}(…), …, S_{i_k}(…), with one
  /// body atom per used source, named by the *source* (names are unique
  /// in a collection; view-head names need not be).
  ConjunctiveQuery over_views;
  /// Its unfolding over the global schema (view bodies substituted in,
  /// existentials renamed apart). Guaranteed contained in the query.
  ConjunctiveQuery expansion;
  /// Indexes of the sources used, parallel to over_views' body atoms.
  std::vector<size_t> sources;
};

/// \brief View-based query rewriting in the style of the Information
/// Manifold's bucket algorithm — the LAV machinery the paper's framework
/// builds upon (Related Work: "the answer computed by the Information
/// Manifold algorithm coincides with the certain answer" for sound
/// views).
///
/// For each relational subgoal of the query, a *bucket* collects the view
/// atoms that can cover it (unifiable, with every distinguished-or-shared
/// query variable exposed through the view head). One usage per subgoal
/// is combined into a candidate, which is kept iff its expansion is
/// provably contained in the query (see containment.h; conservative with
/// built-ins).
///
/// Semantics under the paper's model: evaluating a rewriting over the
/// view *extensions* returns, for every possible world D in which each
/// used source is sound (vᵢ ⊆ φᵢ(D)), a subset of Q(D). With sᵢ = 1 for
/// the used sources these are certain answers; with partial soundness
/// they are answers "supported by the sources' claims" and their
/// confidence can be assessed with the Section 5 machinery.
class BucketRewriter {
 public:
  /// Most bucket combinations `Rewrite` visits; past it, it returns the
  /// rewritings found so far. The combinations grow as the product of the
  /// bucket sizes. Stopping early only drops rewritings and never admits an
  /// uncontained one, so the view-based answer stays a sound lower bound.
  static constexpr uint64_t kMaxCandidates = 4096;

  /// `collection` must outlive the rewriter.
  explicit BucketRewriter(const SourceCollection* collection);

  /// \brief Generates all sound rewritings (deduplicated), visiting at
  /// most `kMaxCandidates` bucket combinations.
  Result<std::vector<Rewriting>> Rewrite(const ConjunctiveQuery& query) const;

  /// \brief Evaluates a rewriting over the sources' current extensions.
  Result<Relation> EvaluateOverExtensions(const Rewriting& rewriting) const;

  /// \brief Union of all rewritings' answers over the extensions — the
  /// view-based answer to `query`.
  Result<Relation> AnswerUsingViews(const ConjunctiveQuery& query) const;

 private:
  const SourceCollection* collection_;
};

}  // namespace psc

#endif  // PSC_REWRITING_BUCKET_REWRITER_H_
