#ifndef PSC_COUNTING_DP_COUNTER_H_
#define PSC_COUNTING_DP_COUNTER_H_

#include <cstdint>

#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/util/result.h"

namespace psc {

/// \brief Exact model counter by dynamic programming over aggregate sums.
///
/// Feasibility of a world depends only on the per-source sound counts
/// Tᵢ = |D ∩ vᵢ| and the world size |D| — not on which count vector
/// produced them. The DP processes signature groups one at a time,
/// aggregating the weight ∏ C(n_g, k_g) into states
///
///   (T₁, …, Tₙ, |D|)  →  number of worlds reaching these sums,
///
/// and sums the feasible states at the end. Since Tᵢ ≤ |vᵢ| and distinct
/// |D| values per state are bounded by the enumeration, the state space is
/// O(∏ᵢ(|vᵢ|+1) · N): *polynomial in the domain size* for a fixed
/// collection, where the shape enumeration of SignatureCounter is
/// exponential in the number of groups' sizes. The two counters are
/// cross-validated in the test suite; E6 compares all three algorithms.
///
/// Worst case is still exponential in the number of sources (Theorem 3.2
/// guarantees no free lunch): the reduction instances have singleton
/// extensions, making ∏(|vᵢ|+1) = 2ⁿ.
class DpCounter {
 public:
  /// `instance` must outlive the counter.
  explicit DpCounter(const IdentityInstance* instance);

  /// \brief Counts all worlds and per-group containment counts, exactly as
  /// SignatureCounter::Count. Fails with ResourceExhausted when the live
  /// state count exceeds `max_states`.
  ///
  /// The 1 + G passes (unmarked, then one per non-empty group) are
  /// independent; with a multi-worker `pool` they run concurrently, each
  /// with its own `BinomialTable`, and the per-pass results land in fixed
  /// slots — the outcome is bit-identical for any worker count.
  /// A tripped cooperative `budget` (deadline / node budget, one node
  /// charged per expanded DP state) fails with `budget.ToStatus()` and
  /// cancels passes still queued on the pool.
  Result<CountingOutcome> Count(uint64_t max_states = uint64_t{1} << 22,
                                exec::ThreadPool* pool = nullptr,
                                const limits::Budget& budget =
                                    limits::Budget());

 private:
  const IdentityInstance* instance_;
};

}  // namespace psc

#endif  // PSC_COUNTING_DP_COUNTER_H_
