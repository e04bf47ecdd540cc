#ifndef PSC_PERFBENCH_COMMON_H_
#define PSC_PERFBENCH_COMMON_H_

/// \file
/// Shared pieces of the benchmark harness: the monotonic clock, the
/// in-memory span tracer that times calls into psc's public functions
/// from outside, a small JSON writer for the raw result record, and the
/// per-run result every workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "psc/relational/conjunctive_query.h"
#include "psc/source/source_collection.h"

namespace perfbench {

/// steady_clock nanoseconds; monotonic, so durations are never negative.
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);

/// One timed call. `parent` indexes the enclosing span (-1 at a root);
/// `request` groups the spans of one benchmark request.
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t request = 0;
};

/// Keeps spans in memory while a traced run executes and writes them out
/// at the end. Single-threaded: the harness makes every traced call from
/// its own thread. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Starts a new request id for the spans that follow.
  void NextRequest() { ++request_; }

  int32_t Open(const char* name);
  void Close(int32_t index);

  /// Per-call durations of every span named `name`.
  std::vector<int64_t> Durations(const std::string& name) const;
  /// Median per-call duration of spans named `name`, in ms (0 if none).
  double MedianMs(const std::string& name) const;

  /// Writes one JSON object per span (name, start_us, end_us, parent,
  /// request). Returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// Per name: calls, total and self time (self = duration minus the part
  /// its child spans cover), as a JSON object. `negative_self` counts
  /// spans whose children sum past them — impossible for nested spans on
  /// a monotonic clock, and rejected by run.py.
  std::string SelfTimeJson(int64_t* negative_self) const;

 private:
  bool enabled_;
  uint32_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer),
        index_(tracer != nullptr && tracer->enabled() ? tracer->Open(name)
                                                      : -1) {}
  ~Span() {
    if (index_ >= 0) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Minimal JSON writer: objects and arrays built by appending members.
class Json {
 public:
  static std::string Quote(const std::string& text);
  static std::string Number(double value);
  static std::string Array(const std::vector<double>& values);
  static std::string StringArray(const std::vector<std::string>& values);

  Json& Raw(const std::string& key, const std::string& raw);
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Peak resident set (VmHWM) of `pid` ("self" for this process) in MB;
/// 0 when /proc is unreadable.
double PeakRssMb(const std::string& pid);

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// pscd binary (serve_mix).
  std::string pscd;
  /// serve_mix: a stall of the generator thread, `stall_at_s` into the
  /// first reference segment, to test due-time latency.
  double stall_ms = 0;
  double stall_at_s = 0;
  /// serve_mix: run only this many seconds per rung (tests); 0 = derive
  /// from `seconds`.
  double rung_seconds = 0;
};

/// What a workload reports. run.py turns samples into percentiles, applies
/// the impossible-value guards and prints the metrics.
struct RunResult {
  /// Latency samples by request class ("answer", "check", "write"), ms.
  std::map<std::string, std::vector<double>> samples;
  /// Set-up durations, s (several set-ups per run; run.py takes the median).
  std::vector<double> setup_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failure reason -> count (error responses, rejections, truncations,
  /// unknown verdicts, no-op writes).
  std::map<std::string, uint64_t> fail_reasons;
  /// Correctness-check failures; any entry fails the run.
  std::vector<std::string> errors;
  /// Completed operations per second (closed loop) or saturated
  /// throughput (serve_mix).
  double ops_per_s = 0;
  double peak_rss_mb = 0;
  /// Per-layer metrics of a traced run.
  std::map<std::string, double> layers;
  /// Extra workload-specific raw JSON members (rungs, pscd counters, ...).
  Json extra;

  void Fail(const std::string& reason) {
    ++failed;
    ++fail_reasons[reason];
  }
  void Error(const std::string& what) { errors.push_back(what); }

  std::string ToJson() const;
};

int RunServeMix(const Options& options, RunResult* result);
int RunOneshotFederation(const Options& options, RunResult* result);
int RunMcFleet(const Options& options, RunResult* result);

/// Sets each per-layer time metric that `tracer` has spans for and
/// `result` has no value for yet: the median per-call duration.
void SetLayerTimes(const Tracer& tracer, RunResult* result);

/// Times every layer on serve_mix's collections and stream for
/// `options.seed`, under `tracer`, and fills in each per-layer metric
/// `result` has no value for yet, so a traced run of any workload reports
/// every layer (serve_mix.cc).
void MeasureRemainingLayers(const Options& options, Tracer* tracer,
                            RunResult* result);

/// Number of solver threads `threads = 0` resolves to.
size_t ResolvedThreads();

/// Times creating and destroying one exec::ThreadPool at the resolved
/// default count, under a span named "exec.pool".
void TimePool(Tracer* tracer);

/// What ProbeLayers probes: a collection and, optionally, a query with its
/// answer domain, plus which counting paths to take on identity views.
struct ProbeInput {
  const psc::SourceCollection* collection = nullptr;
  /// Null: the views of the collection stand in for the query.
  const psc::ConjunctiveQuery* query = nullptr;
  std::vector<psc::Value> domain;
  /// IdentityWorldEnumerator::ForEachWorld over every world.
  bool enumerate = false;
  /// WorldSampler::Create and a few draws; the last draw, not the
  /// checker's witness, is then the world the evaluation probes use.
  bool sample = false;
  /// AlgebraExpr::EvalConfidence over the base-fact confidences.
  bool eval_confidence = false;
  uint64_t seed = 0;
};

/// Running counts from the probes, averaged into per-layer metrics.
struct ProbeCounts {
  double checks = 0;
  double combinations = 0;
  double candidates = 0;
  double unknown = 0;
  double enumerations = 0;
  double worlds = 0;
  double samplers = 0;
  double shapes = 0;

  /// Sets each count metric that has at least one probe behind it.
  void Report(RunResult* result) const;
};

/// Times the solver layers below a request on one input, each entry point
/// under its own span: consistency.check (GeneralConsistencyChecker),
/// tableau.combinations (as many combinations as the checker tried),
/// counting.base_conf / counting.enumerate / counting.sampler_build /
/// counting.sample on identity views, relational.possible_world and
/// relational.eval on a world, algebra.eval_in_world and
/// algebra.eval_confidence for the query, and exec.pool. A world that
/// IsPossibleWorld rejects is an error in `result`.
void ProbeLayers(const ProbeInput& input, Tracer* tracer, ProbeCounts* counts,
                 RunResult* result);

}  // namespace perfbench

#endif  // PSC_PERFBENCH_COMMON_H_
