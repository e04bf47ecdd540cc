// E7 — the motivating GHCN integration scenario, end to end.
//
// Sweeps the number of temperature sources and their coverage, measuring
// (a) the cost of validating a candidate world against every source
// (measure computation = view evaluation + set intersection), and (b) the
// cost and verdict of general consistency checking via canonical freezing.

#include <cstdio>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/consistency/general_consistency.h"
#include "psc/consistency/shrink_witness.h"
#include "psc/source/measures.h"
#include "psc/util/string_util.h"
#include "psc/workload/ghcn.h"

namespace psc {
namespace {

struct Federation {
  GhcnWorld world;
  SourceCollection collection;
};

Result<Federation> MakeFederation(int64_t stations, int64_t num_sources,
                                  double coverage, uint64_t seed) {
  GhcnConfig config;
  config.num_stations = stations;
  config.start_year = 1990;
  config.end_year = 1991;
  GhcnGenerator generator(config, seed);
  Federation federation{generator.GenerateTruth(), {}};
  std::vector<SourceDescriptor> sources;
  PSC_ASSIGN_OR_RETURN(SourceDescriptor catalog,
                       generator.MakeCatalogSource(federation.world, "S0"));
  sources.push_back(std::move(catalog));
  const std::vector<std::string> countries = {"Canada", "US", "Mexico"};
  for (int64_t i = 0; i < num_sources; ++i) {
    PSC_ASSIGN_OR_RETURN(
        SourceDescriptor source,
        generator.MakeCountrySource(
            federation.world, "S" + std::to_string(i + 1),
            countries[static_cast<size_t>(i) % countries.size()],
            /*after_year=*/1900, coverage, /*error_rate=*/0.1));
    sources.push_back(std::move(source));
  }
  PSC_ASSIGN_OR_RETURN(federation.collection,
                       SourceCollection::Create(std::move(sources)));
  return federation;
}

void PrintTable() {
  std::printf("=== E7: GHCN federation — validation and consistency ===\n");
  std::printf("%8s | %8s | %8s | %12s | %14s | %10s | %14s\n", "stations",
              "sources", "coverage", "validate ms", "consistency ms",
              "verdict", "|G| -> |D| (3.1)");
  for (const auto& [stations, num_sources, coverage] :
       std::vector<std::tuple<int64_t, int64_t, double>>{
           {6, 2, 0.8},
           {6, 4, 0.8},
           {12, 4, 0.8},
           {12, 8, 0.5},
           {24, 8, 0.5},
           {24, 16, 0.3}}) {
    auto federation = MakeFederation(stations, num_sources, coverage, 99);
    if (!federation.ok()) continue;

    bench_util::Stopwatch stopwatch;
    auto truth_possible =
        federation->collection.IsPossibleWorld(federation->world.truth);
    const double validate_ms = stopwatch.ElapsedMillis();
    if (!truth_possible.ok() || !*truth_possible) {
      std::printf("  !! ground truth rejected\n");
      continue;
    }

    GeneralConsistencyChecker::Options options;
    options.budget = limits::Budget::WithNodeBudget(4096);
    const GeneralConsistencyChecker checker(options);
    stopwatch.Reset();
    auto report = checker.Check(federation->collection);
    const double consistency_ms = stopwatch.ElapsedMillis();
    // Lemma 3.1: shrink the (large) ground truth to a bounded witness.
    auto shrunk = ShrinkWitness(federation->collection,
                                federation->world.truth);
    const std::string shrink_note =
        shrunk.ok() ? StrCat(federation->world.truth.size(), " -> ",
                             shrunk->size())
                    : std::string("error");
    std::printf("%8lld | %8lld | %8.2f | %12.3f | %14.3f | %10s | %14s\n",
                static_cast<long long>(stations),
                static_cast<long long>(num_sources), coverage, validate_ms,
                report.ok()
                    ? consistency_ms
                    : -1.0,
                report.ok() ? ConsistencyVerdictToString(report->verdict)
                            : "error",
                shrink_note.c_str());
  }
  std::printf(
      "(shape: validation scales with Σ|vᵢ| and view-join cost; honest "
      "federations derived from a real world are always satisfiable, and "
      "the freeze strategy finds a witness without the exhaustive "
      "fallback.)\n\n");
}

void BM_ValidateTruth(benchmark::State& state) {
  auto federation = MakeFederation(state.range(0), 4, 0.8, 7);
  for (auto _ : state) {
    auto possible =
        federation->collection.IsPossibleWorld(federation->world.truth);
    benchmark::DoNotOptimize(possible);
  }
}
BENCHMARK(BM_ValidateTruth)->Arg(6)->Arg(12)->Arg(24);

void BM_ComputeMeasures(benchmark::State& state) {
  auto federation = MakeFederation(12, 4, 0.8, 7);
  const SourceDescriptor& source = federation->collection.source(1);
  for (auto _ : state) {
    auto measures = ComputeMeasures(source, federation->world.truth);
    benchmark::DoNotOptimize(measures);
  }
}
BENCHMARK(BM_ComputeMeasures);

void BM_GhcnGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto federation = MakeFederation(state.range(0), 4, 0.8, 7);
    benchmark::DoNotOptimize(federation);
  }
}
BENCHMARK(BM_GhcnGeneration)->Arg(12)->Arg(48);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  psc::PrintTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_ghcn");
  return 0;
}
