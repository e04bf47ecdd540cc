// E8 — Section 6 cache/mirror application with Monte-Carlo confidence.
//
// (a) Estimation quality: exact-uniform world sampling converges to the
//     exact per-object confidences at the expected 1/√samples rate.
// (b) Scale: sampler construction and throughput on fleets up to
//     thousands of objects (tight bounds keep the feasible shape space
//     small; see web_caches example).

#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/counting/confidence.h"
#include "psc/counting/world_sampler.h"
#include "psc/workload/cache_workload.h"

namespace psc {
namespace {

Result<CacheWorkload> SmallFleet() {
  CacheConfig config;
  config.num_objects = 12;
  config.num_caches = 3;
  config.coverage = 0.7;
  config.staleness = 0.15;
  config.seed = 31;
  return MakeCacheWorkload(config);
}

void PrintErrorTable() {
  std::printf(
      "=== E8a: Monte-Carlo confidence error vs sample count (12 objects, "
      "3 caches) ===\n");
  auto workload = SmallFleet();
  auto instance = IdentityInstance::CreateOverExtensions(workload->collection);
  auto exact = ComputeBaseFactConfidences(*instance);
  if (!exact.ok()) {
    std::printf("%s\n", exact.status().ToString().c_str());
    return;
  }
  auto sampler = WorldSampler::Create(&*instance);
  if (!sampler.ok()) return;
  std::printf("%9s | %12s | %12s | %14s\n", "samples", "max error",
              "mean error", "expected~1/sqrt(n)");
  Rng rng(17);
  std::map<Tuple, uint64_t> hits;
  uint64_t drawn = 0;
  for (const uint64_t target : {100u, 400u, 1600u, 6400u, 25600u}) {
    while (drawn < target) {
      const Database world = sampler->Sample(&rng);
      for (const Fact& fact : world.AllFacts()) ++hits[fact.tuple()];
      ++drawn;
    }
    double max_error = 0;
    double sum_error = 0;
    for (const TupleConfidence& entry : exact->entries) {
      const double estimate =
          static_cast<double>(hits[entry.tuple]) / static_cast<double>(drawn);
      const double error = std::fabs(estimate - entry.confidence);
      max_error = std::max(max_error, error);
      sum_error += error;
    }
    std::printf("%9llu | %12.5f | %12.5f | %14.5f\n",
                static_cast<unsigned long long>(drawn), max_error,
                sum_error / exact->entries.size(),
                0.5 / std::sqrt(static_cast<double>(drawn)));
  }
  std::printf("\n");
}

void PrintScaleTable() {
  std::printf(
      "=== E8b: exact-uniform sampler scale (2 caches, coverage 0.95, "
      "staleness 0.02) ===\n");
  std::printf("%9s | %10s | %12s | %16s\n", "objects", "shapes",
              "build ms", "samples/sec");
  for (const int64_t objects : {250, 500, 1000, 2000, 4000}) {
    CacheConfig config;
    config.num_objects = objects;
    config.num_caches = 2;
    config.coverage = 0.95;
    config.staleness = 0.02;
    config.seed = 31;
    auto workload = MakeCacheWorkload(config);
    if (!workload.ok()) continue;
    auto instance =
        IdentityInstance::CreateOverExtensions(workload->collection);
    if (!instance.ok()) continue;
    bench_util::Stopwatch stopwatch;
    auto sampler = WorldSampler::Create(&*instance);
    const double build_ms = stopwatch.ElapsedMillis();
    if (!sampler.ok()) {
      std::printf("%9lld | %s\n", static_cast<long long>(objects),
                  sampler.status().ToString().c_str());
      continue;
    }
    Rng rng(3);
    const int draws = 200;
    stopwatch.Reset();
    for (int i = 0; i < draws; ++i) {
      benchmark::DoNotOptimize(sampler->Sample(&rng));
    }
    const double sample_sec = stopwatch.ElapsedSeconds();
    std::printf("%9lld | %10zu | %12.2f | %16.1f\n",
                static_cast<long long>(objects), sampler->num_shapes(),
                build_ms, draws / sample_sec);
  }
  std::printf(
      "(shape: error decays ~1/sqrt(samples); sampler build cost tracks "
      "the feasible-shape count, which tight quality bounds keep small "
      "even for thousands of objects.)\n\n");
}

void BM_SampleWorld(benchmark::State& state) {
  CacheConfig config;
  config.num_objects = state.range(0);
  config.num_caches = 2;
  config.coverage = 0.95;
  config.staleness = 0.02;
  config.seed = 31;
  auto workload = MakeCacheWorkload(config);
  auto instance =
      IdentityInstance::CreateOverExtensions(workload->collection);
  auto sampler = WorldSampler::Create(&*instance);
  if (!sampler.ok()) {
    state.SkipWithError("sampler construction failed");
    return;
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler->Sample(&rng));
  }
}
BENCHMARK(BM_SampleWorld)->Arg(250)->Arg(1000)->Arg(4000);

void BM_ExactConfidencesSmallFleet(benchmark::State& state) {
  auto workload = SmallFleet();
  auto instance =
      IdentityInstance::CreateOverExtensions(workload->collection);
  for (auto _ : state) {
    auto table = ComputeBaseFactConfidences(*instance);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_ExactConfidencesSmallFleet);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  psc::PrintErrorTable();
  psc::PrintScaleTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_caches_montecarlo");
  return 0;
}
