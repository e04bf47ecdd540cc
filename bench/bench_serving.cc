// Serving-path benchmark for pscd's resident engine (psc/serve/): what
// does keeping query state warm in one long-lived process buy over the
// one-shot CLI lifecycle, and how does the dispatcher hold up under
// concurrent sessions?
//
//  * warm path — one resident serve::Engine; N simulated closed-loop
//    clients (each keeps exactly one request outstanding, submitting its
//    next request from the previous response's callback) hammer a small
//    pool of answer queries, with one churn session interleaving
//    apply-delta mutations in the "churn" configuration. Compiled plans,
//    eval hash indexes, the consistency witness and the delta-aware
//    answer cache all persist across requests, and compatible answers
//    from different sessions are fused into single batches.
//
//  * cold baseline — the exact work a one-shot `psc answer` pays per
//    request: parse the collection text, build the system, check
//    consistency, compile and answer, then throw everything away.
//
// The sweep reports throughput and interpolated p50/p95/p99 latency
// (bench_util.h) per concurrency point from 1 to 10k sessions, plus the
// warm/cold speedup (target: >= 10x at >= 1k sessions). Warm and cold
// answers are cross-checked byte-for-byte through the protocol formatter
// (nonzero exit on mismatch). `--smoke` runs a seconds-scale subset for
// CI; the final line is the standard structured metrics record.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/core/query_system.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/serve/engine.h"
#include "psc/util/string_util.h"

namespace psc {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "!! MISMATCH: %s\n", what);
    ++g_failures;
  }
}

/// The served collection: three overlapping half-sound mirrors of R over
/// six constants. Sized so a cold request pays visible solver work
/// (consistency check + world enumeration) while a warm repeat is an
/// answer-cache hit — the gap the resident server exists to exploit.
const char* kCollectionText =
    "source S1 {\n"
    "  view: V1(x) <- R(x)\n"
    "  completeness: 0.5\n"
    "  soundness: 0.5\n"
    "  facts: V1(\"a\"), V1(\"b\"), V1(\"c\"), V1(\"d\")\n"
    "}\n"
    "source S2 {\n"
    "  view: V2(x) <- R(x)\n"
    "  completeness: 0.5\n"
    "  soundness: 0.5\n"
    "  facts: V2(\"c\"), V2(\"d\"), V2(\"e\"), V2(\"f\")\n"
    "}\n"
    "source S3 {\n"
    "  view: V3(x) <- R(x)\n"
    "  completeness: 0.5\n"
    "  soundness: 0.5\n"
    "  facts: V3(\"a\"), V3(\"d\"), V3(\"e\"), V3(\"f\")\n"
    "}\n";

const char* kQueries[] = {
    "Ans(x) <- R(x)",
    "Ans(x, y) <- R(x), R(y)",
    "Ans(x) <- R(x), R(x)",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);

/// Delta scripts the churn session alternates between: S1 gains "e",
/// then loses it again — every answer cache entry over R invalidates.
const char* kChurnScripts[] = {"+ S1(\"e\")", "- S1(\"e\")"};

std::string LoadRequest() {
  serve::JsonObjectWriter writer;
  writer.String("verb", "load");
  writer.String("text", kCollectionText);
  return writer.Finish();
}

std::string AnswerRequest(size_t query_index, const std::string& id) {
  serve::JsonObjectWriter writer;
  writer.String("verb", "answer");
  if (!id.empty()) writer.String("id", id);
  writer.String("query", kQueries[query_index % kQueryCount]);
  return writer.Finish();
}

/// The churn session's `mutation`-th apply-delta request (0-based), so
/// inserts and retracts alternate.
std::string DeltaRequest(size_t mutation) {
  serve::JsonObjectWriter writer;
  writer.String("verb", "apply-delta");
  writer.String("script", kChurnScripts[mutation % 2]);
  return writer.Finish();
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

serve::EngineOptions WarmEngineOptions() {
  serve::EngineOptions options;
  options.solver_threads = 1;  // queries are tiny; avoid per-call pools
  options.dispatch_threads = 4;
  options.max_queue = 0;  // closed-loop clients self-limit outstanding work
  options.max_batch = 16;
  return options;
}

/// One concurrency point of the closed-loop sweep. Each of `sessions`
/// simulated clients issues `per_session` requests, one outstanding at a
/// time; with `churn`, session 0 alternates apply-delta mutations between
/// its answers. Returns wall-clock ms and fills per-request latencies; an
/// error response counts as a failure.
double RunWarmPoint(serve::Engine& engine, size_t sessions,
                    size_t per_session, bool churn,
                    std::vector<double>* latencies_us) {
  struct Session {
    size_t sent = 0;
    uint64_t submitted_at = 0;
    std::vector<double> latencies;
  };
  std::vector<Session> state(sessions);
  for (Session& session : state) session.latencies.reserve(per_session);

  std::mutex done_mutex;
  std::condition_variable done_cv;
  size_t active = sessions;
  std::atomic<size_t> errors{0};

  // The per-session request chain: the response callback records the
  // latency and submits the session's next request, so each session keeps
  // exactly one request outstanding — a closed loop.
  std::function<void(size_t)> submit_next = [&](size_t s) {
    Session& session = state[s];
    const size_t step = session.sent++;
    session.submitted_at = NowMicros();
    // Session 0 mutates on odd steps; step / 2 counts its earlier
    // mutations.
    const bool mutate = churn && s == 0 && step % 2 == 1;
    const std::string request =
        mutate ? DeltaRequest(step / 2) : AnswerRequest(s + step, "");
    engine.Submit(s, request, [&, s](const std::string& response) {
      if (response.find("\"ok\":true") == std::string::npos) ++errors;
      Session& mine = state[s];
      mine.latencies.push_back(
          static_cast<double>(NowMicros() - mine.submitted_at));
      if (mine.sent < per_session) {
        submit_next(s);
        return;
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--active == 0) done_cv.notify_one();
    });
  };

  bench_util::Stopwatch stopwatch;
  for (size_t s = 0; s < sessions; ++s) submit_next(s);
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return active == 0; });
  }
  const double elapsed_ms = stopwatch.ElapsedMillis();
  Check(errors.load() == 0, "a warm request got an error response");
  for (const Session& session : state) {
    latencies_us->insert(latencies_us->end(), session.latencies.begin(),
                         session.latencies.end());
  }
  return elapsed_ms;
}

/// The one-shot lifecycle a CLI invocation pays per request, measured
/// over `requests` iterations: parse text, build the system, check,
/// compile, answer, discard.
double RunColdBaseline(size_t requests) {
  bench_util::Stopwatch stopwatch;
  uint64_t sink = 0;
  for (size_t r = 0; r < requests; ++r) {
    auto collection = ParseCollection(kCollectionText);
    if (!collection.ok()) std::abort();
    const std::vector<Value> domain = collection->MentionedConstants();
    QuerySystem::Options options;
    options.threads = 1;
    auto system = QuerySystem::Create(std::move(*collection), options);
    if (!system.ok()) std::abort();
    auto report = system->CheckConsistency();
    if (!report.ok()) std::abort();
    auto query = ParseQuery(kQueries[r % kQueryCount]);
    if (!query.ok()) std::abort();
    auto answer = system->AnswerExact(*query, domain);
    if (!answer.ok()) std::abort();
    sink += answer->confidences.size();
  }
  benchmark::DoNotOptimize(sink);
  return stopwatch.ElapsedMillis();
}

/// Byte-identical cross-check through the protocol formatter: a fresh
/// (cold) engine and the resident (warm) engine must produce the same
/// response line for every query, and a warm repeat must match except
/// for the from_cache flag.
void CrossCheckAnswers(serve::Engine& warm) {
  const auto payload = [](const std::string& response) {
    const size_t at = response.find("\"worlds_used\"");
    return at == std::string::npos ? response : response.substr(at);
  };
  for (size_t q = 0; q < kQueryCount; ++q) {
    serve::EngineOptions cold_options;
    cold_options.solver_threads = 1;
    cold_options.dispatch_threads = 0;  // manual pump: fully deterministic
    serve::Engine cold(cold_options);
    const std::string loaded = cold.Call(1, LoadRequest());
    Check(loaded.find("\"ok\":true") != std::string::npos, "cold load failed");
    const std::string request = AnswerRequest(q, "x");
    const std::string cold_line = cold.Call(1, request);
    const std::string warm_line = warm.Call(1, request);
    const std::string warm_repeat = warm.Call(1, request);
    Check(cold_line == warm_line,
          "warm response differs from cold response byte-for-byte");
    Check(payload(warm_repeat) == payload(warm_line),
          "cached warm answer differs from its first computation");
  }
}

struct SweepPoint {
  size_t sessions;
  bool churn;
};

void RunSweep(bool smoke) {
  const std::vector<SweepPoint> points =
      smoke ? std::vector<SweepPoint>{{1, false}, {8, false}, {64, true}}
            : std::vector<SweepPoint>{{1, false},
                                      {10, false},
                                      {100, false},
                                      {1000, false},
                                      {1000, true},
                                      {10000, false}};
  const size_t total_requests = smoke ? 1024 : 20000;

  serve::Engine engine(WarmEngineOptions());
  const std::string loaded = engine.Call(0, LoadRequest());
  if (loaded.find("\"ok\":true") == std::string::npos) {
    std::fprintf(stderr, "load failed: %s\n", loaded.c_str());
    std::abort();
  }
  CrossCheckAnswers(engine);

  // Cold baseline: concurrency-independent (the CLI is sequential), so
  // measure once and reuse the per-request cost at every point.
  const size_t cold_requests = smoke ? 64 : 256;
  const double cold_ms = RunColdBaseline(cold_requests);
  const double cold_rps =
      static_cast<double>(cold_requests) / (cold_ms / 1000.0);

  std::printf("cold baseline: %.3f ms/request (%.0f req/s one-shot)\n",
              cold_ms / static_cast<double>(cold_requests), cold_rps);
  std::printf("%9s %6s %9s %11s | %9s %9s %9s | %9s\n", "sessions", "churn",
              "requests", "warm req/s", "p50 us", "p95 us", "p99 us",
              "speedup");

  double speedup_at_1k = 0;
  for (const SweepPoint& point : points) {
    const size_t per_session =
        std::max<size_t>(1, total_requests / point.sessions);
    std::vector<double> latencies_us;
    latencies_us.reserve(point.sessions * per_session);
    const double elapsed_ms = RunWarmPoint(engine, point.sessions, per_session,
                                           point.churn, &latencies_us);
    const double warm_rps =
        static_cast<double>(latencies_us.size()) / (elapsed_ms / 1000.0);
    const bench_util::LatencySummary summary =
        bench_util::Summarize(std::move(latencies_us));
    const double speedup = warm_rps / cold_rps;
    if (point.sessions >= 1000 && !point.churn && speedup_at_1k == 0) {
      speedup_at_1k = speedup;
    }
    std::printf("%9zu %6s %9zu %11.0f | %9.0f %9.0f %9.0f | %8.1fx\n",
                point.sessions, point.churn ? "yes" : "no", summary.count,
                warm_rps, summary.p50, summary.p95, summary.p99, speedup);
  }

  if (!smoke) {
    if (speedup_at_1k < 10.0) {
      std::fprintf(stderr,
                   "!! BELOW TARGET: warm/cold speedup %.1fx < 10x at 1k "
                   "sessions\n",
                   speedup_at_1k);
      ++g_failures;
    }
    PSC_OBS_GAUGE_SET("serve.bench.speedup_x100",
                      static_cast<int64_t>(speedup_at_1k * 100.0));
  }
}

// ---------------------------------------------------------------------------
// google-benchmark section (full runs only)
// ---------------------------------------------------------------------------

void BM_WarmAnswer(benchmark::State& state) {
  serve::EngineOptions options;
  options.solver_threads = 1;
  options.dispatch_threads = 1;
  serve::Engine engine(options);
  if (engine.Call(0, LoadRequest()).find("\"ok\":true") == std::string::npos) {
    std::abort();
  }
  size_t q = 0;
  for (auto _ : state) {
    const std::string response = engine.Call(0, AnswerRequest(q++, ""));
    benchmark::DoNotOptimize(response.data());
  }
}
BENCHMARK(BM_WarmAnswer);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("=== resident serving: warm vs one-shot sweep%s ===\n",
              smoke ? " (smoke)" : "");
  psc::RunSweep(smoke);
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  psc::bench_util::EmitMetricsRecord("bench_serving");
  if (psc::g_failures > 0) {
    std::fprintf(stderr, "%d cross-check failures\n", psc::g_failures);
    return 1;
  }
  return 0;
}
