// E3 — Lemma 3.3 + Theorem 3.2 reduction: solving HITTING SET through the
// paper's chain HS → HS* → CONSISTENCY agrees with a direct
// branch-and-bound solver, and the reduction's cost profile exposes the
// NP-hardness of CONSISTENCY (the reduced instances force singleton
// signature groups, the group checker's worst case).

#include <cstdio>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/consistency/hitting_set.h"
#include "psc/workload/random_collections.h"

namespace psc {
namespace {

void PrintTable() {
  std::printf(
      "=== E3: HITTING SET direct vs via CONSISTENCY reduction ===\n");
  std::printf("%9s | %8s | %9s | %12s | %12s | %11s | %11s\n", "universe",
              "subsets", "solvable%", "direct ms", "reduction ms",
              "B&B nodes", "cons.shapes");
  Rng rng(20010901);
  for (const int64_t universe : {4, 6, 8, 10, 12, 14}) {
    const int64_t subsets = universe;
    const int trials = 15;
    int solvable = 0;
    int agreed = 0;
    double direct_ms = 0;
    double reduced_ms = 0;
    uint64_t direct_nodes = 0;
    uint64_t reduced_shapes = 0;
    for (int t = 0; t < trials; ++t) {
      const HittingSetInstance instance = MakeRandomHittingSet(
          universe, subsets, /*max_subset_size=*/3,
          /*budget=*/universe / 3, &rng);
      bench_util::Stopwatch stopwatch;
      auto direct = SolveHittingSet(instance);
      direct_ms += stopwatch.ElapsedMillis();
      stopwatch.Reset();
      auto via = SolveHittingSetViaConsistency(instance);
      reduced_ms += stopwatch.ElapsedMillis();
      if (!direct.ok() || !via.ok()) continue;
      solvable += direct->solvable ? 1 : 0;
      agreed += direct->solvable == via->solvable ? 1 : 0;
      direct_nodes += direct->nodes_expanded;
      reduced_shapes += via->nodes_expanded;
    }
    std::printf("%9lld | %8lld | %8d%% | %12.3f | %12.3f | %11.0f | %11.0f\n",
                static_cast<long long>(universe),
                static_cast<long long>(subsets),
                100 * solvable / trials, direct_ms / trials,
                reduced_ms / trials,
                static_cast<double>(direct_nodes) / trials,
                static_cast<double>(reduced_shapes) / trials);
    if (agreed != trials) {
      std::printf("  !! reduction disagreed on %d/%d instances\n",
                  trials - agreed, trials);
    }
  }
  std::printf(
      "(shape: both exact; the reduction pays a polynomial translation "
      "plus the consistency search, growing exponentially with the "
      "universe — Theorem 3.2's lower bound at work.)\n\n");
}

void BM_DirectHittingSet(benchmark::State& state) {
  Rng rng(5);
  const HittingSetInstance instance = MakeRandomHittingSet(
      state.range(0), state.range(0), 3, state.range(0) / 3, &rng);
  for (auto _ : state) {
    auto result = SolveHittingSet(instance);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DirectHittingSet)->Arg(8)->Arg(12)->Arg(16);

void BM_HittingSetViaConsistency(benchmark::State& state) {
  Rng rng(5);
  const HittingSetInstance instance = MakeRandomHittingSet(
      state.range(0), state.range(0), 3, state.range(0) / 3, &rng);
  for (auto _ : state) {
    auto result = SolveHittingSetViaConsistency(instance);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_HittingSetViaConsistency)->Arg(8)->Arg(12);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  psc::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_hitting_set");
  return 0;
}
