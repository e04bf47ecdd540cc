#ifndef PSC_UTIL_COMBINATORICS_H_
#define PSC_UTIL_COMBINATORICS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "psc/util/bigint.h"

namespace psc {

/// \brief Cache of binomial coefficients C(n, k) as exact big integers.
///
/// The signature-grouping model counter multiplies one C(n_g, k_g) per group
/// per enumerated world-shape, so lookups must be O(1) after the first
/// touch. Each requested row n is materialized independently with the
/// multiplicative recurrence C(n,k+1) = C(n,k)·(n−k)/(k+1) — O(n) big-int
/// operations per row, never the O(n²) Pascal triangle (rows for group
/// sizes in the tens of thousands are routine).
class BinomialTable {
 public:
  BinomialTable() = default;

  BinomialTable(const BinomialTable&) = delete;
  BinomialTable& operator=(const BinomialTable&) = delete;

  /// \brief Returns C(n, k); zero when k > n. `n` and `k` must be >= 0.
  const BigInt& Choose(int64_t n, int64_t k);

  /// \brief Returns row `n`, C(n, 0..n), materializing it on first use.
  /// The reference stays valid for the table's lifetime.
  const std::vector<BigInt>& Row(int64_t n);

 private:
  std::map<int64_t, std::vector<BigInt>> rows_;
  BigInt zero_;
};

/// \brief Enumerates all k-subsets of {0,…,n-1} in lexicographic order,
/// invoking `fn` with the index vector. `fn` returns false to stop early.
///
/// Used by the allowable-combination enumerator (subsets uᵢ ⊆ vᵢ).
template <typename Fn>
bool ForEachSubsetOfSize(int64_t n, int64_t k, Fn&& fn) {
  if (k < 0 || k > n) return true;
  std::vector<int64_t> idx(k);
  for (int64_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    if (!fn(static_cast<const std::vector<int64_t>&>(idx))) return false;
    // Advance to the next combination.
    int64_t i = k - 1;
    while (i >= 0 && idx[i] == n - k + i) --i;
    if (i < 0) return true;
    ++idx[i];
    for (int64_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// \brief Enumerates every subset of {0,…,n-1} with size >= min_size,
/// as a bitmask (n <= 63). `fn` returns false to stop early.
template <typename Fn>
bool ForEachSubsetAtLeast(int64_t n, int64_t min_size, Fn&& fn) {
  const uint64_t limit = uint64_t{1} << n;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    if (static_cast<int64_t>(__builtin_popcountll(mask)) < min_size) continue;
    if (!fn(mask)) return false;
  }
  return true;
}

}  // namespace psc

#endif  // PSC_UTIL_COMBINATORICS_H_
