// Parallel-runtime scaling sweep: the three solver hot paths wired onto
// psc::exec — the canonical-freeze consistency search, the signature
// counter and Monte-Carlo answering — measured at 1/2/4/8 worker threads.
//
// Every configuration must return the same verdict / count / estimate as
// the single-threaded run (the runtime's determinism contract); the table
// prints an explicit check column so a scheduling regression is visible
// as "!! MISMATCH" rather than a silent wrong answer. Speedups depend on
// the machine's core count — on a single-core host the sweep degenerates
// to an overhead measurement, which is also worth tracking.

#include <cstdio>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/consistency/general_consistency.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/model_counter.h"
#include "psc/exec/thread_pool.h"
#include "psc/parser/parser.h"
#include "psc/util/combinatorics.h"

namespace psc {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<Value> IntDomain(int64_t n) {
  std::vector<Value> domain;
  for (int64_t i = 0; i < n; ++i) domain.push_back(Value(i));
  return domain;
}

/// Two mutually complete projection views over disjoint constants: φ(D)
/// must be empty yet soundness demands 4+ facts, so no combination ever
/// freezes to a witness and the search scans the whole (capped)
/// combination space — the worst case the parallel search shards.
SourceCollection FreezeScanCollection() {
  auto view = ParseQuery("V(x) <- R2(x, y)");
  Relation low, high;
  for (int64_t i = 0; i < 8; ++i) {
    low.insert({Value(i)});
    high.insert({Value(i + 8)});
  }
  auto a = SourceDescriptor::Create("A", *view, low, Rational::One(),
                                    Rational(1, 2));
  auto b = SourceDescriptor::Create("B", *view, high, Rational::One(),
                                    Rational(1, 2));
  return *SourceCollection::Create({*a, *b});
}

SourceCollection CountingCollection() {
  Relation v1 = {{Value(int64_t{0})}, {Value(int64_t{1})}};
  Relation v2 = {{Value(int64_t{1})}, {Value(int64_t{2})}};
  auto s1 = SourceDescriptor::Create("S1", ConjunctiveQuery::Identity("R", 1),
                                     v1, Rational(1, 2), Rational(1, 2));
  auto s2 = SourceDescriptor::Create("S2", ConjunctiveQuery::Identity("R", 1),
                                     v2, Rational(1, 2), Rational(1, 2));
  return *SourceCollection::Create({*s1, *s2});
}

void SweepConsistency() {
  std::printf("--- canonical-freeze search (capped at 4096 combinations) "
              "---\n");
  std::printf("%8s | %10s | %8s | %8s\n", "threads", "time ms", "speedup",
              "verdict");
  const SourceCollection collection = FreezeScanCollection();
  double base_ms = 0.0;
  std::string base_verdict;
  for (const size_t threads : kThreadCounts) {
    GeneralConsistencyChecker::Options options;
    options.max_combinations = 4096;
    options.enable_exhaustive = false;
    options.threads = threads;
    const GeneralConsistencyChecker checker(options);
    bench_util::Stopwatch stopwatch;
    auto report = checker.Check(collection);
    const double ms = stopwatch.ElapsedMillis();
    if (!report.ok()) continue;
    const std::string verdict = ConsistencyVerdictToString(report->verdict);
    if (threads == 1) {
      base_ms = ms;
      base_verdict = verdict;
    }
    std::printf("%8zu | %10.2f | %7.2fx | %s%s\n", threads, ms,
                base_ms / std::max(ms, 1e-6), verdict.c_str(),
                verdict == base_verdict ? "" : "  !! MISMATCH");
  }
}

void SweepCounting() {
  std::printf("\n--- signature counter (domain 2048) ---\n");
  std::printf("%8s | %10s | %8s | %18s\n", "threads", "time ms", "speedup",
              "|poss(S)| digits");
  const SourceCollection collection = CountingCollection();
  auto instance = IdentityInstance::Create(collection, IntDomain(2048));
  if (!instance.ok()) return;
  double base_ms = 0.0;
  BigInt base_count;
  for (const size_t threads : kThreadCounts) {
    BinomialTable binomials;
    SignatureCounter counter(&*instance, &binomials);
    bench_util::Stopwatch stopwatch;
    Result<CountingOutcome> outcome = Status::Internal("unset");
    if (threads == 1) {
      outcome = counter.Count();
    } else {
      exec::ThreadPool pool(threads);
      outcome = counter.Count(uint64_t{1} << 26, &pool);
    }
    const double ms = stopwatch.ElapsedMillis();
    if (!outcome.ok()) continue;
    if (threads == 1) {
      base_ms = ms;
      base_count = outcome->world_count;
    }
    std::printf("%8zu | %10.2f | %7.2fx | %18zu%s\n", threads, ms,
                base_ms / std::max(ms, 1e-6),
                outcome->world_count.ToString().size(),
                outcome->world_count == base_count ? "" : "  !! MISMATCH");
  }
}

void SweepSampling() {
  std::printf("\n--- Monte-Carlo answering (20000 samples) ---\n");
  std::printf("%8s | %10s | %8s | %10s\n", "threads", "time ms", "speedup",
              "tuples");
  const SourceCollection collection = CountingCollection();
  auto query = ParseQuery("A(x) <- R(x)");
  double base_ms = 0.0;
  size_t reference_tuples = 0;
  for (const size_t threads : kThreadCounts) {
    QuerySystem::Options options;
    options.threads = threads;
    auto system = QuerySystem::Create(collection, options);
    if (!system.ok()) continue;
    bench_util::Stopwatch stopwatch;
    auto answer =
        system->AnswerMonteCarlo(*query, IntDomain(12), 20000, /*seed=*/11);
    const double ms = stopwatch.ElapsedMillis();
    if (!answer.ok()) continue;
    // Every thread count shares one counter-based stream layout, so all
    // rows must agree exactly.
    if (threads == 1) {
      base_ms = ms;
      reference_tuples = answer->confidences.size();
    }
    std::printf("%8zu | %10.2f | %7.2fx | %10zu%s\n", threads, ms,
                base_ms / std::max(ms, 1e-6), answer->confidences.size(),
                answer->confidences.size() != reference_tuples
                    ? "  !! MISMATCH"
                    : "");
  }
}

void BM_ParallelSignatureCount(benchmark::State& state) {
  const SourceCollection collection = CountingCollection();
  auto instance = IdentityInstance::Create(collection, IntDomain(1024));
  const size_t threads = static_cast<size_t>(state.range(0));
  exec::ThreadPool pool(threads);
  for (auto _ : state) {
    BinomialTable binomials;
    SignatureCounter counter(&*instance, &binomials);
    auto outcome =
        counter.Count(uint64_t{1} << 26, threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ParallelSignatureCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelFreezeSearch(benchmark::State& state) {
  const SourceCollection collection = FreezeScanCollection();
  GeneralConsistencyChecker::Options options;
  options.max_combinations = 512;
  options.enable_exhaustive = false;
  options.threads = static_cast<size_t>(state.range(0));
  const GeneralConsistencyChecker checker(options);
  for (auto _ : state) {
    auto report = checker.Check(collection);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_ParallelFreezeSearch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  std::printf("=== parallel runtime scaling (hardware threads: %zu) ===\n",
              psc::exec::HardwareThreads());
  psc::SweepConsistency();
  psc::SweepCounting();
  psc::SweepSampling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  psc::bench_util::EmitMetricsRecord("bench_parallel_scaling");
  return 0;
}
