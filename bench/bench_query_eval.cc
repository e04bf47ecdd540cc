// Compiled-vs-oracle conjunctive-query evaluation sweep: chain joins of
// 1–4 atoms over random edge relations, crossed with relation size and
// join selectivity (edge fanout). Every configuration evaluates with the
// compiled engine and with the nested-loop reference interpreter
// (tests/oracle/eval_oracle.h) and checks the results are identical, so a
// planner or index bug shows up as "!! MISMATCH" instead of a fast wrong
// answer.
//
// The headline number is the speedup column: the compiled slot-based
// plans with lazy hash indexes (relational/query_plan.h) are expected to
// beat the scan-per-depth oracle by well over 5x on 3+-atom joins over
// >= 1000-tuple relations, and to stay at least even on the tiny
// databases world enumeration churns through.
//
// `--smoke` runs a seconds-scale subset for CI (tools/ci_matrix.sh); the
// full sweep plus the google-benchmark section is the default. The final
// line is the standard structured metrics record (bench_util.h), which
// carries the eval.* counters for tools/check_metrics_schema.py.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "oracle/eval_oracle.h"
#include "psc/parser/parser.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/relational/query_plan.h"
#include "psc/util/random.h"

namespace psc {
namespace {

/// A random edge relation E with `edges` tuples over a `domain`-node
/// universe: fanout edges/domain controls join selectivity.
Database MakeGraphDb(uint64_t seed, int64_t edges, int64_t domain) {
  Rng rng(seed);
  Database db;
  while (db.size() < static_cast<size_t>(edges)) {
    db.AddFact("E", {Value(rng.UniformInt(0, domain - 1)),
                     Value(rng.UniformInt(0, domain - 1))});
  }
  return db;
}

/// The k-atom chain join V(v0, vk) <- E(v0, v1), ..., E(v_{k-1}, v_k),
/// optionally guarded by a built-in on the endpoints.
ConjunctiveQuery ChainQuery(int atoms, bool with_builtin) {
  std::string text = "V(v0, v" + std::to_string(atoms) + ") <- ";
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) text += ", ";
    text += "E(v" + std::to_string(i) + ", v" + std::to_string(i + 1) + ")";
  }
  if (with_builtin) text += ", Before(v0, v" + std::to_string(atoms) + ")";
  auto query = ParseQuery(text);
  if (!query.ok()) {
    std::fprintf(stderr, "bad bench query %s: %s\n", text.c_str(),
                 query.status().ToString().c_str());
    std::abort();
  }
  return std::move(query).ValueOrDie();
}

/// One evaluation with the compiled engine (`compiled`) or the oracle.
Result<Relation> EvaluateWith(bool compiled, const ConjunctiveQuery& query,
                              const Database& db) {
  return compiled ? query.Evaluate(db) : oracle::Evaluate(query, db);
}

/// Times `reps` evaluations with the given engine; returns per-eval ms and
/// stores the last result for the equality check.
double TimeEngine(const ConjunctiveQuery& query, const Database& db,
                  bool compiled, int reps, Relation* result) {
  bench_util::Stopwatch stopwatch;
  for (int r = 0; r < reps; ++r) {
    auto evaluated = EvaluateWith(compiled, query, db);
    if (!evaluated.ok()) {
      std::fprintf(stderr, "evaluate failed: %s\n",
                   evaluated.status().ToString().c_str());
      std::abort();
    }
    if (r + 1 == reps) *result = *std::move(evaluated);
  }
  return stopwatch.ElapsedMillis() / reps;
}

struct SweepConfig {
  int64_t edges;
  int64_t domain;  // fanout = edges / domain
};

int RunSweep(bool smoke) {
  const std::vector<int> atom_counts =
      smoke ? std::vector<int>{2, 3} : std::vector<int>{1, 2, 3, 4};
  const std::vector<SweepConfig> configs =
      smoke ? std::vector<SweepConfig>{{64, 32}}
            : std::vector<SweepConfig>{{100, 100},   // tiny, sparse
                                       {1000, 1000},  // fanout 1
                                       {1000, 250},   // fanout 4
                                       {4000, 2000}};
  const int compiled_reps = smoke ? 2 : 10;
  const int oracle_reps = smoke ? 1 : 2;

  std::printf("%6s %7s %7s %9s | %12s %12s %9s | %8s %s\n", "atoms",
              "edges", "domain", "builtin", "oracle ms", "compiled ms",
              "speedup", "tuples", "check");
  int mismatches = 0;
  for (const SweepConfig& config : configs) {
    const Database db = MakeGraphDb(/*seed=*/17, config.edges, config.domain);
    for (const int atoms : atom_counts) {
      for (const bool with_builtin : {false, true}) {
        // Quadratic-and-worse oracle blowup: skip the pathological corner
        // in the full sweep rather than waiting minutes for it.
        if (!smoke && atoms == 4 && config.edges >= 4000) continue;
        const ConjunctiveQuery query = ChainQuery(atoms, with_builtin);
        eval::ClearQueryPlanCache();
        Relation compiled_result, oracle_result;
        const double oracle_ms =
            TimeEngine(query, db, /*compiled=*/false, oracle_reps,
                       &oracle_result);
        const double compiled_ms =
            TimeEngine(query, db, /*compiled=*/true, compiled_reps,
                       &compiled_result);
        const bool match = compiled_result == oracle_result;
        mismatches += match ? 0 : 1;
        std::printf("%6d %7lld %7lld %9s | %12.3f %12.3f %8.1fx | %8zu %s\n",
                    atoms, static_cast<long long>(config.edges),
                    static_cast<long long>(config.domain),
                    with_builtin ? "yes" : "no", oracle_ms, compiled_ms,
                    oracle_ms / std::max(compiled_ms, 1e-6),
                    compiled_result.size(),
                    match ? "ok" : "!! MISMATCH");
      }
    }
  }
  return mismatches;
}

void BM_ChainJoin(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  const bool compiled = state.range(1) != 0;
  const Database db = MakeGraphDb(/*seed=*/17, /*edges=*/1000, /*domain=*/500);
  const ConjunctiveQuery query = ChainQuery(atoms, /*with_builtin=*/false);
  for (auto _ : state) {
    auto result = EvaluateWith(compiled, query, db);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ChainJoin)
    ->ArgNames({"atoms", "compiled"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1});

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("=== compiled query evaluation: chain-join sweep%s ===\n",
              smoke ? " (smoke)" : "");
  const int mismatches = psc::RunSweep(smoke);
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  psc::bench_util::EmitMetricsRecord("bench_query_eval");
  if (mismatches > 0) {
    std::fprintf(stderr, "%d engine mismatches\n", mismatches);
    return 1;
  }
  return 0;
}
