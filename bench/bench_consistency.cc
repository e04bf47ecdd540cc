// E2 — Theorem 3.2: CONSISTENCY is NP-complete in the size of the view
// extensions.
//
// The experiment charts the work of two exact deciders as instances grow:
//  * the 2^N brute-force subset filter (the NP guess-and-check procedure),
//  * the signature-group checker (still worst-case exponential, but
//    polynomial whenever the number of distinct signature groups is
//    bounded — random overlapping sources keep it small).
// The NP-hardness worst case is exercised separately with the Theorem 3.2
// reduction instances (E3), whose groups are forced to be singletons.

#include <cstdio>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/consistency/identity_consistency.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/workload/random_collections.h"

namespace psc {
namespace {

std::vector<Value> IntDomain(int64_t n) {
  std::vector<Value> domain;
  for (int64_t i = 0; i < n; ++i) domain.push_back(Value(i));
  return domain;
}

void PrintTable() {
  std::printf(
      "=== E2: consistency deciders vs instance size (random identity "
      "collections, 3 sources) ===\n");
  std::printf("%9s | %12s | %14s | %14s | %12s\n", "universe",
              "consistent%", "counter ms/inst", "2^N oracle ms",
              "visited shapes");
  Rng rng(42);
  for (const int64_t universe : {4, 8, 12, 16, 20, 40, 80, 160}) {
    RandomIdentityConfig config;
    config.num_sources = 3;
    config.universe_size = universe;
    config.min_extension = universe / 2;
    config.max_extension = universe;
    const int trials = 20;
    int consistent = 0;
    uint64_t shapes = 0;
    double counter_ms = 0;
    double oracle_ms = -1;
    for (int t = 0; t < trials; ++t) {
      auto collection = MakeRandomIdentityCollection(config, &rng);
      if (!collection.ok()) continue;
      bench_util::Stopwatch stopwatch;
      auto report = CheckIdentityConsistency(
          *collection, limits::Budget::WithNodeBudget(uint64_t{1} << 28));
      counter_ms += stopwatch.ElapsedMillis();
      if (!report.ok()) {
        std::printf("  (budget exhausted at universe=%lld)\n",
                    static_cast<long long>(universe));
        continue;
      }
      consistent += report->consistent ? 1 : 0;
      shapes += report->visited_shapes;
      if (universe <= 20) {
        if (oracle_ms < 0) oracle_ms = 0;
        stopwatch.Reset();
        BruteForceWorldEnumerator oracle(&*collection, IntDomain(universe));
        auto count = oracle.CountPossibleWorlds();
        oracle_ms += stopwatch.ElapsedMillis();
        if (count.ok() && (*count > 0) != report->consistent) {
          std::printf("  !! disagreement with oracle\n");
        }
      }
    }
    if (oracle_ms >= 0) {
      std::printf("%9lld | %11d%% | %14.3f | %14.3f | %12.1f\n",
                  static_cast<long long>(universe),
                  100 * consistent / trials, counter_ms / trials,
                  oracle_ms / trials,
                  static_cast<double>(shapes) / trials);
    } else {
      std::printf("%9lld | %11d%% | %14.3f | %14s | %12.1f\n",
                  static_cast<long long>(universe),
                  100 * consistent / trials, counter_ms / trials, "2^N n/a",
                  static_cast<double>(shapes) / trials);
    }
  }
  std::printf(
      "(shape: the 2^N oracle explodes past ~20 facts; the group checker "
      "scales through it while agreeing on every decided instance.)\n\n");
}

void BM_IdentityConsistency(benchmark::State& state) {
  Rng rng(7);
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = state.range(0);
  config.min_extension = state.range(0) / 2;
  config.max_extension = state.range(0);
  auto collection = MakeRandomIdentityCollection(config, &rng);
  for (auto _ : state) {
    auto report = CheckIdentityConsistency(
        *collection, limits::Budget::WithNodeBudget(uint64_t{1} << 28));
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_IdentityConsistency)->Arg(8)->Arg(32)->Arg(128);

void BM_BruteForceOracle(benchmark::State& state) {
  Rng rng(7);
  RandomIdentityConfig config;
  config.num_sources = 3;
  config.universe_size = state.range(0);
  config.min_extension = state.range(0) / 2;
  config.max_extension = state.range(0);
  auto collection = MakeRandomIdentityCollection(config, &rng);
  const std::vector<Value> domain = IntDomain(state.range(0));
  for (auto _ : state) {
    BruteForceWorldEnumerator oracle(&*collection, domain);
    auto count = oracle.CountPossibleWorlds();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BruteForceOracle)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  psc::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_consistency");
  return 0;
}
