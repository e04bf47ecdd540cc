// oneshot_federation: closed loop, one request at a time, in-process. Each
// request pays what a fresh `psc check` / `psc answer` pays —
// ParseCollection → QuerySystem::Create (default options) →
// CheckConsistency, then ParseQuery → AnswerExact or AnswerCompositional —
// with the compiled-plan cache and the containment memo cleared first.

#include <algorithm>
#include <cmath>

#include "common.h"
#include "inputs.h"
#include "psc/core/query_system.h"
#include "psc/counting/confidence.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/relational/query_plan.h"
#include "psc/rewriting/containment.h"

namespace perfbench {

namespace {

/// Distinct generated requests; the closed loop cycles through them.
constexpr size_t kRequestCycle = 600;
constexpr int kSetups = 15;

std::vector<psc::Value> IntDomain(const std::vector<std::string>& domain) {
  std::vector<psc::Value> values;
  for (const std::string& v : domain) values.emplace_back(std::stoll(v));
  return values;
}

struct Outcome {
  double check_ms = 0;
  double answer_ms = -1;  // < 0: no answer part
  bool ok = true;
  /// How long after the loop issued it the request's timed part began.
  double lag_ms = 0;
  /// Verdict and confidences, for comparing repeats of one input.
  std::string digest;
};

/// Checks one request's results against an independent reference. Run
/// once per distinct input, outside the timed request.
void Verify(const OneshotRequest& request, const psc::QuerySystem& system,
            const psc::ConsistencyReport& report,
            const psc::QueryAnswer* answer, RunResult* result) {
  const std::string kind = OneshotKindName(request.kind);
  switch (request.kind) {
    case OneshotKind::kGhcn: {
      if (report.verdict != psc::ConsistencyVerdict::kConsistent ||
          !report.witness.has_value()) {
        return result->Error("honest GHCN federation not CONSISTENT");
      }
      auto possible = system.collection().IsPossibleWorld(*report.witness);
      if (!possible.ok() || !*possible) {
        result->Error("GHCN witness rejected by IsPossibleWorld");
      }
      return;
    }
    case OneshotKind::kHsStar: {
      auto solved = psc::SolveHittingSet(request.hitting_set);
      const auto expected = solved.ok() && solved->solvable
                                ? psc::ConsistencyVerdict::kConsistent
                                : psc::ConsistencyVerdict::kInconsistent;
      if (!solved.ok() || report.verdict != expected) {
        result->Error("HS* verdict disagrees with SolveHittingSet");
      }
      return;
    }
    case OneshotKind::kIdentityExact:
    case OneshotKind::kIdentityCompositional: {
      if (report.verdict != psc::ConsistencyVerdict::kConsistent) {
        return result->Error("planted identity collection not CONSISTENT");
      }
      auto table = system.BaseConfidences(IntDomain(request.domain));
      if (!table.ok() || answer == nullptr) {
        return result->Error(kind + ": no reference confidences");
      }
      for (const psc::TupleConfidence& entry : table->entries) {
        const auto& entries = answer->confidences.entries();
        const auto it = entries.find(entry.tuple);
        const double got = it == entries.end() ? 0.0 : it->second;
        if (std::fabs(got - entry.confidence) > 1e-12) {
          return result->Error(kind + ": confidence differs from "
                                      "BaseConfidences by more than 1e-12");
        }
      }
      return;
    }
  }
}

/// One request, timed end to end. With an enabled tracer its calls are
/// spans under a "request" span; a first occurrence is verified.
Outcome RunRequest(const OneshotRequest& request, bool verify,
                   int64_t issued, Tracer* tracer, RunResult* result) {
  Outcome outcome;
  psc::eval::ClearQueryPlanCache();
  psc::ClearContainmentCache();
  tracer->NextRequest();
  const int64_t start = NowNs();
  outcome.lag_ms = NsToMs(start - issued);
  psc::Result<psc::QuerySystem> system;
  psc::Result<psc::ConsistencyReport> report;
  psc::Result<psc::QueryAnswer> answer;
  int64_t checked = 0;
  {
    const Span request_span(tracer, "request");
    psc::Result<psc::SourceCollection> collection;
    {
      const Span span(tracer, "parser.collection");
      collection = psc::ParseCollection(request.collection_text);
    }
    if (collection.ok()) {
      const Span span(tracer, "core.create");
      system = psc::QuerySystem::Create(std::move(*collection));
    } else {
      system = collection.status();
    }
    if (system.ok()) {
      const Span span(tracer, "core.check");
      report = system->CheckConsistency();
    }
    checked = NowNs();
    if (report.ok() && !request.query.empty()) {
      psc::Result<psc::ConjunctiveQuery> query;
      {
        const Span span(tracer, "parser.query");
        query = psc::ParseQuery(request.query);
      }
      const std::vector<psc::Value> domain = IntDomain(request.domain);
      if (!query.ok()) {
        answer = query.status();
      } else if (request.kind == OneshotKind::kIdentityExact) {
        const Span span(tracer, "core.answer_exact");
        answer = system->AnswerExact(*query, domain);
      } else {
        const Span span(tracer, "core.answer_compositional");
        answer = system->AnswerCompositional(*query, domain);
      }
    }
  }
  const int64_t end = NowNs();
  outcome.check_ms = NsToMs(checked - start);
  if (!request.query.empty()) outcome.answer_ms = NsToMs(end - checked);

  ++result->attempted;
  if (!system.ok() || !report.ok()) {
    result->Fail("error");
    outcome.ok = false;
    if (verify) {
      const psc::Status status = system.ok() ? report.status() : system.status();
      result->Error("request failed: " + status.ToString());
    }
    return outcome;
  }
  if (report->verdict == psc::ConsistencyVerdict::kUnknown) {
    result->Fail("unknown_verdict");
    outcome.ok = false;
  }
  outcome.digest = psc::ConsistencyVerdictToString(report->verdict);
  if (!request.query.empty()) {
    if (!answer.ok()) {
      result->Fail("error");
      outcome.ok = false;
    } else {
      if (answer->truncated) result->Fail("truncated");
      outcome.digest += answer->confidences.ToString();
    }
  }
  if (verify) {
    Verify(request, *system, *report, answer.ok() ? &*answer : nullptr,
           result);
  }
  return outcome;
}

/// Layer probes for one request's input, outside its "request" span.
void Probe(const OneshotRequest& request, Tracer* tracer, ProbeCounts* counts,
           RunResult* result) {
  auto collection = psc::ParseCollection(request.collection_text);
  if (!collection.ok()) return;
  psc::Result<psc::ConjunctiveQuery> query = psc::Status::NotFound("no query");
  if (!request.query.empty()) query = psc::ParseQuery(request.query);
  ProbeInput input;
  input.collection = &*collection;
  input.query = query.ok() ? &*query : nullptr;
  input.domain = IntDomain(request.domain);
  input.enumerate = request.kind == OneshotKind::kIdentityExact;
  input.eval_confidence = request.kind == OneshotKind::kIdentityCompositional;
  ProbeLayers(input, tracer, counts, result);
}

/// Runs the closed loop for `seconds` from position `*next` of the cycle,
/// and advances it; returns per-request end-to-end durations (ms) in
/// request order.
std::vector<double> ClosedLoop(const std::vector<OneshotRequest>& requests,
                               size_t* next, double seconds, Tracer* tracer,
                               std::vector<std::string>* digests,
                               RunResult* result, ProbeCounts* counts,
                               std::map<std::string, double>* sums,
                               std::map<std::string, std::vector<double>>* kind_ms) {
  std::vector<double> durations;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (; NowNs() < stop; ++*next) {
    const size_t index = *next % requests.size();
    const bool first = (*digests)[index].empty();
    const Outcome outcome =
        RunRequest(requests[index], first, NowNs(), tracer, result);
    if (!outcome.ok) continue;
    if (first) {
      (*digests)[index] = outcome.digest;
    } else if ((*digests)[index] != outcome.digest) {
      result->Error("a repeated request gave a different answer");
    }
    durations.push_back(outcome.check_ms +
                        std::max(0.0, outcome.answer_ms));
    (*kind_ms)[OneshotKindName(requests[index].kind)].push_back(
        durations.back());
    if (!tracer->enabled()) {
      (*sums)["issue_lag_ms"] += outcome.lag_ms;
      (*sums)["issues"] += 1;
      result->samples["check"].push_back(outcome.check_ms);
      if (outcome.answer_ms >= 0) {
        result->samples["answer"].push_back(outcome.answer_ms);
      }
    } else {
      Probe(requests[index], tracer, counts, result);
    }
  }
  return durations;
}

/// Set-up: ParseCollection and QuerySystem::Create over the whole request
/// cycle, what a service holding every input pays before its first check.
bool LoadCycle(const std::vector<OneshotRequest>& requests, RunResult* result) {
  psc::eval::ClearQueryPlanCache();
  psc::ClearContainmentCache();
  std::vector<psc::QuerySystem> systems;
  systems.reserve(requests.size());
  for (const OneshotRequest& request : requests) {
    auto collection = psc::ParseCollection(request.collection_text);
    auto system = collection.ok()
                      ? psc::QuerySystem::Create(std::move(*collection))
                      : psc::Result<psc::QuerySystem>(collection.status());
    if (!system.ok()) {
      result->Error(std::string("a generated ") + OneshotKindName(request.kind) +
                    " collection did not load: " + system.status().ToString());
      return false;
    }
    systems.push_back(std::move(*system));
  }
  return true;
}

}  // namespace

int RunOneshotFederation(const Options& options, RunResult* result) {
  const std::vector<OneshotRequest> requests =
      MakeOneshotRequests(options.seed, kRequestCycle);
  for (const OneshotRequest& request : requests) {
    if (request.collection_text.empty()) {
      result->Error("input generation failed for a " +
                    std::string(OneshotKindName(request.kind)) + " request");
      return 1;
    }
  }

  std::vector<std::string> digests(requests.size());
  ProbeCounts counts;
  std::map<std::string, double> sums;
  Tracer untraced(false);
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::map<std::string, std::vector<double>> kind_ms;
  // One set-up before each of kSetups segments of the untraced loop, so
  // their median samples the host across the run, as the request
  // latencies do; set-ups back to back at the start read one moment of it.
  std::vector<double> plain;
  double pools = 0;
  size_t next = 0;
  for (int s = 0; s < kSetups; ++s) {
    const int64_t start = NowNs();
    if (!LoadCycle(requests, result)) return 1;
    result->setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
    const uint64_t pools_before =
        psc::obs::GlobalMetrics().CounterValue("exec.pools_created");
    const std::vector<double> segment =
        ClosedLoop(requests, &next, untraced_s / kSetups, &untraced, &digests,
                   result, &counts, &sums, &kind_ms);
    pools += static_cast<double>(
        psc::obs::GlobalMetrics().CounterValue("exec.pools_created") -
        pools_before);
    plain.insert(plain.end(), segment.begin(), segment.end());
  }
  Json kinds;
  for (const auto& [kind, values] : kind_ms) {
    kinds.Raw(kind, Json()
                        .Int("requests", static_cast<int64_t>(values.size()))
                        .Num("median_ms", Median(values))
                        .Num("max_ms", *std::max_element(values.begin(),
                                                         values.end()))
                        .Finish());
  }
  result->extra.Raw("kinds", kinds.Finish());
  double busy_s = 0;
  for (const double ms : plain) busy_s += ms / 1000.0;
  result->ops_per_s = busy_s > 0 ? static_cast<double>(plain.size()) / busy_s : 0;
  result->peak_rss_mb = PeakRssMb("self");
  if (!options.trace) return result->errors.empty() ? 0 : 1;

  Tracer tracer(true);
  size_t traced_next = 0;
  const std::vector<double> traced =
      ClosedLoop(requests, &traced_next, options.seconds - untraced_s, &tracer,
                 &digests, result, &counts, &sums, &kind_ms);
  // Compare the same requests: both loops start at the first input.
  const size_t common = std::min(plain.size(), traced.size());
  const double plain_median =
      Median(std::vector<double>(plain.begin(), plain.begin() + common));
  const double traced_median =
      Median(std::vector<double>(traced.begin(), traced.begin() + common));
  result->layers["trace.overhead_frac"] =
      plain_median > 0 ? traced_median / plain_median - 1 : 0;
  result->layers["exec.pools_per_request"] =
      plain.empty() ? 0 : pools / static_cast<double>(plain.size());
  counts.Report(result);
  result->layers["gen.lag_ms"] =
      sums["issue_lag_ms"] / std::max(1.0, sums["issues"]);
  SetLayerTimes(tracer, result);
  // Layers these requests never enter (Monte-Carlo, serve, delta) are timed
  // on serve_mix's inputs for the same seed.
  Tracer remaining(true);
  MeasureRemainingLayers(options, &remaining, result);
  int64_t negative_self = 0;
  result->extra.Raw("self_time", tracer.SelfTimeJson(&negative_self))
      .Int("negative_self_spans", negative_self);
  if (!tracer.WriteJsonl("spans.jsonl")) result->Error("could not write spans");
  return result->errors.empty() ? 0 : 1;
}

}  // namespace perfbench
