#ifndef PSC_UTIL_COMBINATORICS_H_
#define PSC_UTIL_COMBINATORICS_H_

#include <cstdint>
#include <vector>

#include "psc/util/bigint.h"

namespace psc {

/// \brief Row `n` of Pascal's triangle, C(n, 0..n), as exact big integers.
///
/// Built with the multiplicative recurrence C(n,k+1) = C(n,k)·(n−k)/(k+1):
/// O(n) big-int operations, never the O(n²) triangle (rows for group sizes
/// in the tens of thousands are routine). `n` must be >= 0.
std::vector<BigInt> BinomialRow(int64_t n);

/// \brief Advances `idx`, a k-subset of {0,…,n-1} as increasing indices,
/// to the next k-subset in lexicographic order. From the last one it wraps
/// to the first, {0,…,k-1}, and returns false.
inline bool NextSubsetOfSize(int64_t n, std::vector<int64_t>* idx) {
  std::vector<int64_t>& combo = *idx;
  const int64_t k = static_cast<int64_t>(combo.size());
  int64_t i = k - 1;
  while (i >= 0 && combo[static_cast<size_t>(i)] == n - k + i) --i;
  const bool advanced = i >= 0;
  int64_t next = advanced ? combo[static_cast<size_t>(i)] + 1 : 0;
  for (int64_t j = advanced ? i : 0; j < k; ++j) {
    combo[static_cast<size_t>(j)] = next++;
  }
  return advanced;
}

/// \brief Enumerates all k-subsets of {0,…,n-1} in lexicographic order,
/// invoking `fn` with the index vector. `fn` returns false to stop early.
///
/// Used by the allowable-combination enumerator (subsets uᵢ ⊆ vᵢ).
template <typename Fn>
bool ForEachSubsetOfSize(int64_t n, int64_t k, Fn&& fn) {
  if (k < 0 || k > n) return true;
  std::vector<int64_t> idx(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) idx[static_cast<size_t>(i)] = i;
  do {
    if (!fn(static_cast<const std::vector<int64_t>&>(idx))) return false;
  } while (NextSubsetOfSize(n, &idx));
  return true;
}

}  // namespace psc

#endif  // PSC_UTIL_COMBINATORICS_H_
