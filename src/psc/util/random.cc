#include "psc/util/random.h"

#include <algorithm>

#include "psc/util/status.h"

namespace psc {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  PSC_CHECK_MSG(lo <= hi, "Rng::UniformInt: empty range");
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::UniformDouble() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return UniformDouble() < p;
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  PSC_CHECK_MSG(k >= 0 && k <= n, "Rng::SampleWithoutReplacement: bad k");
  // Floyd: each step picks t in [0, j] and takes j instead when t is
  // already chosen. Picks are marked in a flat vector and read back in
  // ascending order.
  std::vector<char> chosen(static_cast<size_t>(n), 0);
  for (int64_t j = n - k; j < n; ++j) {
    const int64_t t = UniformInt(0, j);
    char& mark = chosen[static_cast<size_t>(t)];
    if (mark == 0) {
      mark = 1;
    } else {
      chosen[static_cast<size_t>(j)] = 1;
    }
  }
  std::vector<int64_t> picks;
  picks.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < n; ++i) {
    if (chosen[static_cast<size_t>(i)] != 0) picks.push_back(i);
  }
  return picks;
}

}  // namespace psc
