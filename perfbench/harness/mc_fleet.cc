// mc_fleet: closed loop, in-process. Each operation checks every §6 cache
// fleet (QuerySystem::CheckConsistency), estimates one fleet's object
// confidences with QuerySystem::AnswerMonteCarlo at default threads and a
// fixed sample count, and checks every fleet again. Estimates are checked
// against exact base confidences computed before the timed phase.

#include <algorithm>
#include <cmath>

#include "common.h"
#include "inputs.h"
#include "psc/core/query_system.h"
#include "psc/counting/confidence.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"

namespace perfbench {

namespace {

constexpr int kSetups = 15;
/// An estimate fails when its sample count is this improbable under
/// Binomial(samples, exact confidence) — two-sided, exact. Over the ~10^5
/// tuple estimates of a run a correct sampler fails with odds ~10^-7.
constexpr double kTailProbability = 1e-12;

struct Fleet {
  std::string label;
  std::unique_ptr<psc::QuerySystem> system;
  psc::ConjunctiveQuery query;
  std::vector<psc::Value> domain;
  psc::ConfidenceTable exact;
  /// Sample counts per exact entry, pooled over every operation.
  std::vector<int64_t> pooled;
  int64_t pooled_samples = 0;
};

/// Parse, build and check every fleet: what a service holding the fleets
/// pays before its first estimate.
bool SetUp(const std::vector<FleetInput>& inputs, std::vector<Fleet>* fleets,
           RunResult* result) {
  fleets->clear();
  for (const FleetInput& input : inputs) {
    auto collection = psc::ParseCollection(input.collection_text);
    auto query = psc::ParseQuery(input.query);
    if (!collection.ok() || !query.ok()) {
      result->Error("fleet " + input.label + " did not parse");
      return false;
    }
    Fleet fleet;
    fleet.label = input.label;
    fleet.domain = collection->MentionedConstants();
    auto system = psc::QuerySystem::Create(std::move(*collection));
    if (!system.ok()) {
      result->Error("fleet " + input.label + ": Create failed");
      return false;
    }
    fleet.system = std::make_unique<psc::QuerySystem>(std::move(*system));
    fleet.query = std::move(*query);
    auto report = fleet.system->CheckConsistency();
    if (!report.ok() ||
        report->verdict != psc::ConsistencyVerdict::kConsistent) {
      result->Error("fleet " + input.label + " is not CONSISTENT");
      return false;
    }
    fleets->push_back(std::move(fleet));
  }
  return true;
}

/// P(X <= k) or P(X >= k) for X ~ Binomial(n, p), whichever side k is on.
double BinomialTail(int n, int k, double p) {
  if (p <= 0) return k == 0 ? 1 : 0;
  if (p >= 1) return k == n ? 1 : 0;
  const bool lower = k <= n * p;
  double tail = 0;
  for (int i = lower ? 0 : k; i <= (lower ? k : n); ++i) {
    tail += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                     std::lgamma(n - i + 1.0) + i * std::log(p) +
                     (n - i) * std::log1p(-p));
  }
  return tail;
}

/// Whether `count` of `n` samples is plausible for exact confidence `p`.
bool Plausible(int64_t n, int64_t count, double p) {
  const double estimate = static_cast<double>(count) / static_cast<double>(n);
  // Cheap pre-filter: within 4 standard errors needs no exact tail.
  if (std::fabs(estimate - p) <= 4 * std::sqrt(p * (1 - p) / n)) return true;
  return BinomialTail(static_cast<int>(n), static_cast<int>(count), p) >=
         kTailProbability;
}

/// Checks one operation's estimates and adds its counts to the pool.
void CheckEstimate(Fleet* fleet, const psc::QueryAnswer& answer,
                   RunResult* result) {
  const int64_t n = static_cast<int64_t>(answer.worlds_used);
  const auto& estimates = answer.confidences.entries();
  fleet->pooled.resize(fleet->exact.entries.size(), 0);
  fleet->pooled_samples += n;
  for (size_t e = 0; e < fleet->exact.entries.size(); ++e) {
    const psc::TupleConfidence& entry = fleet->exact.entries[e];
    const auto it = estimates.find(entry.tuple);
    const int64_t count = std::llround(
        (it == estimates.end() ? 0.0 : it->second) * static_cast<double>(n));
    fleet->pooled[e] += count;
    if (!Plausible(n, count, entry.confidence)) {
      result->Error("fleet " + fleet->label + ": " + std::to_string(count) +
                    " of " + std::to_string(n) +
                    " samples is implausible for exact confidence " +
                    Json::Number(entry.confidence));
      return;
    }
  }
}

/// The pooled estimate of every tuple, over all operations of a run, must
/// be plausible too: this catches a small bias no single operation shows.
void CheckPooled(const std::vector<Fleet>& fleets, RunResult* result) {
  for (const Fleet& fleet : fleets) {
    for (size_t e = 0; e < fleet.pooled.size(); ++e) {
      if (!Plausible(fleet.pooled_samples, fleet.pooled[e],
                     fleet.exact.entries[e].confidence)) {
        result->Error("fleet " + fleet.label +
                      ": pooled Monte-Carlo estimate is biased");
        break;
      }
    }
  }
}

/// Checks the consistency of every fleet, each call under a core.check
/// span, and returns how long the pass took (ns). A failed check clears
/// `*ok`; an UNKNOWN verdict sets `*unknown`.
int64_t CheckFleets(const std::vector<Fleet>& fleets, Tracer* tracer,
                    bool* ok, bool* unknown) {
  const int64_t start = NowNs();
  for (const Fleet& fleet : fleets) {
    psc::Result<psc::ConsistencyReport> report;
    {
      const Span span(tracer, "core.check");
      report = fleet.system->CheckConsistency();
    }
    if (!report.ok()) {
      *ok = false;
    } else if (report->verdict == psc::ConsistencyVerdict::kUnknown) {
      *unknown = true;
    }
  }
  return NowNs() - start;
}

/// Closed loop over the fleets for `seconds` from operation `*next`, and
/// advances it; returns per-operation durations (ms) in operation order.
/// An operation re-checks every fleet, answers one fleet's query by Monte
/// Carlo, and re-checks every fleet again; its check sample is the faster
/// of the two passes. On a shared host the single-threaded check runs in
/// a fast or a ~45% slower mode depending on the vCPU it lands on, and
/// the share of slow placements changes from run to run, so a median of
/// single passes jumps between the modes. The parallel answer between the
/// passes moves the thread, so both passes are slow only about as often as
/// the square of that share, and the lower quartile run.py reports stays in
/// the fast mode unless more than 85% of placements are slow.
std::vector<double> ClosedLoop(std::vector<Fleet>* fleets,
                               const std::vector<FleetInput>& inputs,
                               uint64_t seed, size_t* next, double seconds,
                               Tracer* tracer, ProbeCounts* counts,
                               RunResult* result) {
  std::vector<double> durations;
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (; NowNs() < stop; ++*next) {
    const size_t i = *next;
    const int64_t issued = NowNs();
    Fleet& fleet = (*fleets)[i % fleets->size()];
    tracer->NextRequest();
    const int64_t start = NowNs();
    bool checks_ok = true;
    bool unknown = false;
    psc::Result<psc::QueryAnswer> answer;
    int64_t check_ns = 0;
    int64_t answer_ns = 0;
    {
      const Span request_span(tracer, "request");
      check_ns = CheckFleets(*fleets, tracer, &checks_ok, &unknown);
      const int64_t answer_start = NowNs();
      {
        const Span span(tracer, "core.answer_mc");
        answer = fleet.system->AnswerMonteCarlo(fleet.query, fleet.domain,
                                                kMcSamples,
                                                psc::MixSeed(seed, 5000 + i));
      }
      answer_ns = NowNs() - answer_start;
      check_ns = std::min(
          check_ns, CheckFleets(*fleets, tracer, &checks_ok, &unknown));
    }
    const int64_t end = NowNs();
    ++result->attempted;
    if (!checks_ok || !answer.ok()) {
      result->Fail("error");
      continue;
    }
    if (unknown) result->Fail("unknown_verdict");
    if (answer->truncated) result->Fail("truncated");
    CheckEstimate(&fleet, *answer, result);
    durations.push_back(NsToMs(end - start));
    if (!tracer->enabled()) {
      result->samples["check"].push_back(NsToMs(check_ns));
      result->samples["answer"].push_back(NsToMs(answer_ns));
      result->layers["gen.lag_ms_sum"] += NsToMs(start - issued);
      result->layers["gen.lag_ms_n"] += 1;
      continue;
    }
    // Layer probes over the same fleet, outside the operation's span.
    ProbeInput input;
    input.collection = &fleet.system->collection();
    input.query = &fleet.query;
    input.domain = fleet.domain;
    input.sample = true;
    input.seed = psc::MixSeed(seed, 7000 + i);
    ProbeLayers(input, tracer, counts, result);
    const FleetInput& text = inputs[i % inputs.size()];
    {
      const Span span(tracer, "parser.collection");
      (void)psc::ParseCollection(text.collection_text);
    }
    {
      const Span span(tracer, "parser.query");
      (void)psc::ParseQuery(text.query);
    }
  }
  return durations;
}

}  // namespace

int RunMcFleet(const Options& options, RunResult* result) {
  const std::vector<FleetInput> inputs = MakeFleets(options.seed);
  for (const FleetInput& input : inputs) {
    if (input.collection_text.empty()) {
      result->Error("fleet generation failed for " + input.label);
      return 1;
    }
  }
  std::vector<Fleet> fleets;
  int64_t start = NowNs();
  if (!SetUp(inputs, &fleets, result)) return 1;
  result->setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
  // Exact references, outside every timed phase.
  for (Fleet& fleet : fleets) {
    auto exact = fleet.system->BaseConfidences(fleet.domain);
    if (!exact.ok()) {
      result->Error("fleet " + fleet.label + ": no exact confidences");
      return 1;
    }
    fleet.exact = std::move(*exact);
  }

  Tracer untraced(false);
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  // The set-ups after the first run between kSetups segments of the
  // untraced loop, so their median samples the host across the run, as
  // the operation latencies do (see oneshot.cc).
  std::vector<double> plain;
  double pools = 0;
  size_t next = 0;
  for (int s = 0; s < kSetups; ++s) {
    if (s > 0) {
      std::vector<Fleet> again;
      start = NowNs();
      if (!SetUp(inputs, &again, result)) return 1;
      result->setup_s.push_back(NsToMs(NowNs() - start) / 1000.0);
    }
    const uint64_t pools_before =
        psc::obs::GlobalMetrics().CounterValue("exec.pools_created");
    const std::vector<double> segment =
        ClosedLoop(&fleets, inputs, options.seed, &next, untraced_s / kSetups,
                   &untraced, nullptr, result);
    pools += static_cast<double>(
        psc::obs::GlobalMetrics().CounterValue("exec.pools_created") -
        pools_before);
    plain.insert(plain.end(), segment.begin(), segment.end());
  }
  CheckPooled(fleets, result);
  double busy_s = 0;
  for (const double ms : plain) busy_s += ms / 1000.0;
  result->ops_per_s = busy_s > 0 ? static_cast<double>(plain.size()) / busy_s : 0;
  result->peak_rss_mb = PeakRssMb("self");
  if (!options.trace) return result->errors.empty() ? 0 : 1;

  Tracer tracer(true);
  ProbeCounts counts;
  size_t traced_next = 0;
  const std::vector<double> traced =
      ClosedLoop(&fleets, inputs, options.seed, &traced_next,
                 options.seconds - untraced_s, &tracer, &counts, result);
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
  const double lags = result->layers["gen.lag_ms_n"];
  result->layers["gen.lag_ms"] =
      lags > 0 ? result->layers["gen.lag_ms_sum"] / lags : 0;
  result->layers.erase("gen.lag_ms_sum");
  result->layers.erase("gen.lag_ms_n");
  SetLayerTimes(tracer, result);
  // Layers these operations never enter (serve, delta, exact enumeration,
  // tableau) are timed on serve_mix's inputs for the same seed.
  Tracer remaining(true);
  MeasureRemainingLayers(options, &remaining, result);
  int64_t negative_self = 0;
  result->extra.Raw("self_time", tracer.SelfTimeJson(&negative_self))
      .Int("negative_self_spans", negative_self);
  if (!tracer.WriteJsonl("spans.jsonl")) result->Error("could not write spans");
  return result->errors.empty() ? 0 : 1;
}

}  // namespace perfbench
