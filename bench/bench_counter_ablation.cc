// E6 — ablation of the signature-grouping model counter.
//
// The paper computes N_sol(Γ) "by generating all the possible global
// databases (in exponential time)". We implement that literally (the
// LinearSystem 2^N enumeration) and compare it with the signature counter,
// which exploits the exchangeability of same-signature facts. Both must
// return identical counts; the speedup is the point of the ablation.

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/counting/linear_system.h"
#include "psc/counting/model_counter.h"
#include "psc/util/random.h"

namespace psc {
namespace {

std::vector<Value> IntDomain(int64_t n) {
  std::vector<Value> domain;
  for (int64_t i = 0; i < n; ++i) domain.push_back(Value(i));
  return domain;
}

SourceCollection OverlappingCollection() {
  Relation v1 = {{Value(int64_t{0})}, {Value(int64_t{1})}};
  Relation v2 = {{Value(int64_t{1})}, {Value(int64_t{2})}};
  auto s1 = SourceDescriptor::Create("S1", ConjunctiveQuery::Identity("R", 1),
                                     v1, Rational(1, 2), Rational(1, 2));
  auto s2 = SourceDescriptor::Create("S2", ConjunctiveQuery::Identity("R", 1),
                                     v2, Rational(1, 2), Rational(1, 2));
  return *SourceCollection::Create({*s1, *s2});
}

/// Sizes of a planted federation: universe, truth and extension.
struct PlantedSizes {
  int64_t universe;
  int64_t truth;
  int64_t extension;
};

/// Three identity sources over a universe with a planted truth: source s
/// holds `extension` + s facts, three quarters of them true, and claims
/// its true soundness and completeness rounded down to quarters.
SourceCollection PlantedCollection(const PlantedSizes& sizes, uint64_t seed) {
  Rng rng(seed);
  const int64_t n = sizes.universe;
  const std::vector<int64_t> truth =
      rng.SampleWithoutReplacement(n, sizes.truth);
  const std::set<int64_t> truth_set(truth.begin(), truth.end());
  std::vector<int64_t> others;
  for (int64_t i = 0; i < n; ++i) {
    if (truth_set.count(i) == 0) others.push_back(i);
  }
  std::vector<SourceDescriptor> sources;
  for (int64_t s = 0; s < 3; ++s) {
    const int64_t size = sizes.extension + s;
    std::vector<int64_t> true_ids = truth;
    std::vector<int64_t> false_ids = others;
    rng.Shuffle(&true_ids);
    rng.Shuffle(&false_ids);
    const int64_t sound = std::min<int64_t>((3 * size + 3) / 4,
                                            static_cast<int64_t>(truth.size()));
    Relation extension;
    for (int64_t i = 0; i < sound; ++i) {
      extension.insert({Value(true_ids[static_cast<size_t>(i)])});
    }
    for (size_t i = 0; static_cast<int64_t>(extension.size()) < size &&
                       i < false_ids.size();
         ++i) {
      extension.insert({Value(false_ids[i])});
    }
    const int64_t extension_size = static_cast<int64_t>(extension.size());
    auto source = SourceDescriptor::Create(
        "S" + std::to_string(s + 1), ConjunctiveQuery::Identity("R", 1),
        std::move(extension),
        Rational(4 * sound / static_cast<int64_t>(truth.size()), 4),
        Rational(4 * sound / extension_size, 4));
    sources.push_back(std::move(*source));
  }
  return *SourceCollection::Create(std::move(sources));
}

void PrintTable() {
  std::printf(
      "=== E6: signature counter vs 2^N enumeration (identical counts) "
      "===\n");
  std::printf("%4s | %16s | %12s | %14s | %10s\n", "N", "|poss(S)|",
              "shapes ms", "2^N ms", "speedup");
  const SourceCollection collection = OverlappingCollection();
  for (const int64_t n : {4, 8, 12, 16, 20, 22}) {
    auto instance = IdentityInstance::Create(collection, IntDomain(n));
    if (!instance.ok()) continue;

    bench_util::Stopwatch stopwatch;
    SignatureCounter counter(&*instance);
    auto outcome = counter.Count();
    const double counter_ms = stopwatch.ElapsedMillis();

    stopwatch.Reset();
    auto system = LinearSystem::FromIdentityInstance(*instance);
    auto brute = system->CountSolutionsBruteForce();
    const double brute_ms = stopwatch.ElapsedMillis();

    if (!outcome.ok() || !brute.ok()) continue;
    const bool match = outcome->world_count == *brute;
    std::printf("%4lld | %16s | %12.3f | %14.3f | %9.1fx%s\n",
                static_cast<long long>(n),
                outcome->world_count.ToString().c_str(), counter_ms,
                brute_ms, brute_ms / std::max(counter_ms, 1e-6),
                match ? "" : "  !! MISMATCH");
  }
  // Beyond the 2^N horizon the shape counter keeps going.
  for (const int64_t n : {64, 256, 1024, 8192}) {
    auto instance = IdentityInstance::Create(collection, IntDomain(n));
    if (!instance.ok()) continue;
    bench_util::Stopwatch stopwatch;
    SignatureCounter counter(&*instance);
    auto outcome = counter.Count();
    const double counter_ms = stopwatch.ElapsedMillis();
    if (!outcome.ok()) continue;
    std::printf("%4lld | %16s | %12.3f | %14s | %10s\n",
                static_cast<long long>(n),
                outcome->world_count.ToString().c_str(), counter_ms,
                "2^N n/a", "-");
  }
  // Three noisy sources over a planted truth, sized like the one-shot
  // federation benchmark's compositional answers (dense universes of 48
  // and 64 facts, a sparse one of 160): up to 8 groups, where shapes
  // multiply across groups instead of growing with one.
  for (const PlantedSizes& sizes : {PlantedSizes{48, 28, 24},
                                    PlantedSizes{64, 38, 32},
                                    PlantedSizes{160, 12, 8}}) {
    const int64_t n = sizes.universe;
    const SourceCollection planted = PlantedCollection(sizes, /*seed=*/1);
    auto instance = IdentityInstance::Create(planted, IntDomain(n));
    if (!instance.ok()) continue;
    bench_util::Stopwatch stopwatch;
    SignatureCounter counter(&*instance);
    auto outcome = counter.Count();
    const double counter_ms = stopwatch.ElapsedMillis();
    if (!outcome.ok()) continue;
    std::printf("%4lld | %16.6g | %12.3f | %14s | %10s"
                "  (planted, %zu groups, %llu shapes)\n",
                static_cast<long long>(n), outcome->world_count.ToDouble(),
                counter_ms, "2^N n/a", "-", instance->groups().size(),
                static_cast<unsigned long long>(outcome->feasible_shapes));
  }
  std::printf(
      "(shape: identical counts from both algorithms; the 2^N baseline "
      "doubles per fact, shape enumeration grows with the largest group "
      "on two sources and multiplies across groups on planted three-source "
      "federations.)\n\n");
}

void BM_SignatureCounter(benchmark::State& state) {
  const SourceCollection collection = OverlappingCollection();
  auto instance =
      IdentityInstance::Create(collection, IntDomain(state.range(0)));
  for (auto _ : state) {
    SignatureCounter counter(&*instance);
    auto outcome = counter.Count();
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_SignatureCounter)->Arg(8)->Arg(64)->Arg(1024);

void BM_BruteForceCount(benchmark::State& state) {
  const SourceCollection collection = OverlappingCollection();
  auto instance =
      IdentityInstance::Create(collection, IntDomain(state.range(0)));
  auto system = LinearSystem::FromIdentityInstance(*instance);
  for (auto _ : state) {
    auto count = system->CountSolutionsBruteForce();
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BruteForceCount)->Arg(8)->Arg(16)->Arg(20);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  psc::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_counter_ablation");
  return 0;
}
