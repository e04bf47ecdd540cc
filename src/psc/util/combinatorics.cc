#include "psc/util/combinatorics.h"

#include "psc/util/status.h"

namespace psc {

std::vector<BigInt> BinomialRow(int64_t n) {
  PSC_CHECK_MSG(n >= 0, "BinomialRow: negative argument");
  std::vector<BigInt> row(static_cast<size_t>(n) + 1);
  row[0] = BigInt(1);
  for (int64_t k = 0; k < n; ++k) {
    // C(n, k+1) = C(n, k) · (n − k) / (k + 1), exactly.
    BigInt next = row[static_cast<size_t>(k)];
    next.MulU32(static_cast<uint32_t>(n - k));
    row[static_cast<size_t>(k + 1)] =
        next.DivExactU32(static_cast<uint32_t>(k + 1));
  }
  return row;
}

}  // namespace psc
