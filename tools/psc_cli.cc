// psc — command-line front end for the library.
//
//   psc check <file>                        consistency + witness
//   psc print <file>                        parse and pretty-print
//   psc confidences <file> [options]        Section 5.1 base confidences
//   psc answer <file> "<query>" [options]   certain/possible/confidence
//   psc certain <file> "<query>"            certain-answer lower bound
//                                           (templates + view rewriting)
//   psc consensus <file>                    source trust report
//   psc audit <file>                        blame / maximal subsets /
//                                           uniform relaxation
//
// Options:
//   --domain v1,v2,...   finite domain (integers or bare strings);
//                        default: every constant mentioned by the sources
//   --method exact|compositional|mc        (answer; default exact)
//   --samples N          Monte-Carlo samples  (answer --method mc)
//   --seed N             Monte-Carlo seed
//   --metrics-out PATH   write the observability run report as JSON
//   --trace              buffer trace spans and print the span tree
//   --trace-out PATH     write the spans as Chrome trace-event JSON
//                        (open in ui.perfetto.dev or chrome://tracing);
//                        implies span buffering like --trace
//   --trace-buffer N     trace-span buffer capacity (default 65536);
//                        spans past the capacity are counted in the
//                        trace.dropped counter instead of buffered
//   --quiet              suppress the one-line solver stats summary
//   --threads N          solver worker threads; 0 = auto (PSC_THREADS env
//                        or hardware concurrency), 1 = sequential
//   --deadline-ms N      wall-clock budget per solver call; on expiry
//                        consistency degrades to UNKNOWN, Monte-Carlo
//                        returns a truncated estimate, exact counting
//                        fails with "Deadline exceeded" (0 = unlimited)
//   --node-budget N      explored-node budget per solver call, same
//                        degradation contract (0 = unlimited)
//   --apply-delta PATH   streaming mode for check/answer: run once on the
//                        initial collection, then apply each batch of the
//                        delta script at PATH (lines "+ Src(t)" /
//                        "- Src(t)", batches separated by "--", see
//                        psc/delta/delta_script.h) and re-run, keeping
//                        consistency witnesses, indexes and answers warm
//                        through the incremental delta engine
//
// Source files use the text format documented in psc/parser/parser.h; see
// examples in the repository README.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "psc/consistency/diagnostics.h"
#include "psc/core/certain_answer.h"
#include "psc/core/query_system.h"
#include "psc/delta/delta_script.h"
#include "psc/delta/incremental.h"
#include "psc/counting/consensus.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/limits/budget.h"
#include "psc/obs/chrome_trace.h"
#include "psc/obs/log.h"
#include "psc/obs/report.h"
#include "psc/obs/scope.h"
#include "psc/obs/trace.h"
#include "psc/parser/parser.h"
#include "psc/rewriting/bucket_rewriter.h"
#include "psc/tableau/template_builder.h"
#include "psc/util/bigint.h"
#include "psc/util/string_util.h"

namespace psc {
namespace {

/// ^C / SIGTERM handling. The handler must not printf, allocate or lock —
/// it only calls `CancelToken::Cancel()`, a relaxed atomic store, which is
/// async-signal-safe. Every solver call adopts this token (via
/// QuerySystem::Options::cancel / CliBudget), so an interrupt degrades the
/// in-flight command gracefully (UNKNOWN verdict, truncated answer,
/// DeadlineExceeded) and control returns to Main, where the
/// --metrics-out/--trace-out artifact writers still run instead of the
/// process dying with the report unwritten. A second signal restores the
/// default disposition, so a wedged run can still be killed.
limits::CancelToken& InterruptToken() {
  static limits::CancelToken token;
  return token;
}

void HandleInterrupt(int signo) {
  InterruptToken().Cancel();
  std::signal(signo, SIG_DFL);
}

void InstallInterruptHandler() {
  (void)InterruptToken();  // construct before any signal can arrive
  std::signal(SIGINT, HandleInterrupt);
  std::signal(SIGTERM, HandleInterrupt);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: psc "
               "<check|print|confidences|answer|certain|consensus|audit> "
               "<file> [\"query\"] [--domain v1,v2,...] "
               "[--method exact|compositional|mc] [--samples N] [--seed N] "
               "[--metrics-out PATH] [--trace] [--trace-out PATH] "
               "[--trace-buffer N] [--quiet] [--threads N] "
               "[--deadline-ms N] [--node-budget N] "
               "[--apply-delta PATH]\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream input(path);
  if (!input) {
    return Status::NotFound(StrCat("cannot open '", path, "'"));
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

struct CliOptions {
  std::string command;
  std::string file;
  std::string query;
  std::vector<Value> domain;
  bool domain_given = false;
  std::string method = "exact";
  uint64_t samples = 10000;
  uint64_t seed = 1;
  std::string metrics_out;
  /// Chrome trace-event JSON output path; implies span buffering.
  std::string trace_out;
  /// Trace-span buffer capacity; 0 keeps the default (65536).
  size_t trace_buffer = 0;
  bool trace = false;
  bool quiet = false;
  /// Per-command telemetry scope, installed by Main around the solving
  /// commands (null for `print`).
  obs::Scope scope;
  /// 0 = auto (PSC_THREADS env, then hardware concurrency).
  size_t threads = 0;
  /// Wall-clock deadline per solver call in ms; 0 = unlimited.
  int64_t deadline_ms = 0;
  /// Explored-node budget per solver call; 0 = unlimited.
  uint64_t node_budget = 0;
  /// Delta script path enabling the streaming mode (empty = off).
  std::string apply_delta;
};

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  if (argc < 3) return Status::InvalidArgument("missing arguments");
  options.command = argv[1];
  options.file = argv[2];
  int position = 3;
  if (options.command == "answer" || options.command == "certain") {
    if (argc < 4) return Status::InvalidArgument("missing query");
    options.query = argv[3];
    position = 4;
  }
  for (int i = position; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(StrCat("missing value for ", arg));
      }
      return std::string(argv[++i]);
    };
    if (arg == "--domain") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      options.domain = ParseDomainList(value);
      options.domain_given = true;
    } else if (arg == "--method") {
      PSC_ASSIGN_OR_RETURN(options.method, next());
    } else if (arg == "--samples") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      options.samples = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--metrics-out") {
      PSC_ASSIGN_OR_RETURN(options.metrics_out, next());
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(std::strlen("--metrics-out="));
      if (options.metrics_out.empty()) {
        return Status::InvalidArgument("empty path for --metrics-out");
      }
    } else if (arg == "--trace-out") {
      PSC_ASSIGN_OR_RETURN(options.trace_out, next());
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(std::strlen("--trace-out="));
      if (options.trace_out.empty()) {
        return Status::InvalidArgument("empty path for --trace-out");
      }
    } else if (arg == "--trace-buffer") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      char* end = nullptr;
      errno = 0;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() ||
          errno == ERANGE || value[0] == '-' || parsed == 0) {
        return Status::InvalidArgument(StrCat(
            "--trace-buffer expects a positive integer, got '", value,
            "'"));
      }
      options.trace_buffer = static_cast<size_t>(parsed);
    } else if (arg == "--threads") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      // Validate strictly: "-1" would wrap to SIZE_MAX and ask the pool
      // for that many workers.
      char* end = nullptr;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &end, 10);
      constexpr unsigned long long kMaxThreads = 1024;
      if (value.empty() || end != value.c_str() + value.size() ||
          value[0] == '-' || parsed > kMaxThreads) {
        return Status::InvalidArgument(
            StrCat("--threads expects an integer in [0, ", kMaxThreads,
                   "], got '", value, "'"));
      }
      options.threads = static_cast<size_t>(parsed);
    } else if (arg == "--deadline-ms") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() ||
          errno == ERANGE || parsed < 0) {
        return Status::InvalidArgument(StrCat(
            "--deadline-ms expects a non-negative integer, got '", value,
            "'"));
      }
      options.deadline_ms = static_cast<int64_t>(parsed);
    } else if (arg == "--node-budget") {
      PSC_ASSIGN_OR_RETURN(const std::string value, next());
      char* end = nullptr;
      errno = 0;
      const unsigned long long parsed =
          std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() ||
          errno == ERANGE || value[0] == '-') {
        return Status::InvalidArgument(StrCat(
            "--node-budget expects a non-negative integer, got '", value,
            "'"));
      }
      options.node_budget = static_cast<uint64_t>(parsed);
    } else if (arg == "--apply-delta") {
      PSC_ASSIGN_OR_RETURN(options.apply_delta, next());
    } else if (arg.rfind("--apply-delta=", 0) == 0) {
      options.apply_delta = arg.substr(std::strlen("--apply-delta="));
      if (options.apply_delta.empty()) {
        return Status::InvalidArgument("empty path for --apply-delta");
      }
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      return Status::InvalidArgument(StrCat("unknown flag ", arg));
    }
  }
  return options;
}

/// Small-instance cut-off for the witness cross-check: above this many
/// allowable combinations the rep(𝒯^U) scan is skipped.
constexpr int64_t kMaxCrossCheckCombinations = 4096;

/// Re-derives the witness through the Theorem 4.1 template family: a found
/// witness must be a member of rep(𝒯^U) for some allowable U. Only run on
/// small instances; disagreement indicates a solver bug, not user error.
void CrossCheckWitness(const SourceCollection& collection,
                       const Database& witness) {
  TemplateBuilder builder(&collection);
  if (builder.CountAllowableCombinations() >
      BigInt(kMaxCrossCheckCombinations)) {
    return;
  }
  auto contained = builder.FamilyContains(witness);
  if (!contained.ok()) return;  // e.g. built-ins: the check is best-effort
  std::printf("witness cross-check: %s\n",
              *contained ? "member of the rep(T^U) template family"
                         : "WARNING: not matched by any template");
}

QuerySystem::Options SystemOptions(const CliOptions& options) {
  QuerySystem::Options system_options;
  system_options.threads = options.threads;
  system_options.deadline_ms = options.deadline_ms;
  system_options.node_budget = options.node_budget;
  system_options.cancel = InterruptToken();
  system_options.scope = options.scope;
  return system_options;
}

/// Budget for the commands that bypass QuerySystem (certain, consensus,
/// audit).
/// Always active: it adopts the interrupt token so ^C unwinds these
/// commands through their graceful-degradation paths too.
limits::Budget CliBudget(const CliOptions& options) {
  limits::BudgetOptions budget_options;
  budget_options.deadline_ms = options.deadline_ms;
  budget_options.node_budget = options.node_budget;
  budget_options.cancel = InterruptToken();
  return limits::Budget(budget_options);
}

int RunCheck(const SourceCollection& collection, const CliOptions& options) {
  auto system = QuerySystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  auto report = system->CheckConsistency();
  if (!report.ok()) return Fail(report.status());
  std::printf("verdict: %s\n", ConsistencyVerdictToString(report->verdict));
  std::printf("method:  %s\n", report->method.c_str());
  if (!report->unknown_reason.empty()) {
    std::printf("reason:  %s\n", report->unknown_reason.c_str());
  }
  if (report->witness.has_value()) {
    std::printf("witness possible world (%zu facts):\n%s\n",
                report->witness->size(),
                report->witness->ToString().c_str());
    CrossCheckWitness(collection, *report->witness);
  }
  return report->verdict == ConsistencyVerdict::kInconsistent ? 3 : 0;
}

int RunConfidences(const SourceCollection& collection,
                   const CliOptions& options) {
  auto system = QuerySystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  auto table = system->BaseConfidences(options.domain);
  if (!table.ok()) return Fail(table.status());
  std::printf("|poss(S)| = %s\n", table->world_count.ToString().c_str());
  for (const TupleConfidence& entry : table->entries) {
    std::printf("%-30s %.6f\n", TupleToString(entry.tuple).c_str(),
                entry.confidence);
  }
  return 0;
}

void PrintAnswer(const QueryAnswer& answer) {
  std::printf("method: %s%s  (worlds used: %llu)\n", answer.method.c_str(),
              answer.from_cache ? " [cached]" : "",
              static_cast<unsigned long long>(answer.worlds_used));
  if (answer.truncated) {
    std::printf("TRUNCATED: %s\n", answer.truncation_reason.c_str());
  }
  std::printf("certain answer (%zu tuples):\n", answer.certain.size());
  for (const Tuple& tuple : answer.certain) {
    std::printf("  %s\n", TupleToString(tuple).c_str());
  }
  std::printf("possible answer with confidences (%zu tuples):\n",
              answer.confidences.size());
  for (const auto& [tuple, confidence] : answer.confidences.entries()) {
    std::printf("  %-28s %.6f\n", TupleToString(tuple).c_str(), confidence);
  }
}

int RunAnswer(const SourceCollection& collection, const CliOptions& options) {
  auto query = ParseQuery(options.query);
  if (!query.ok()) return Fail(query.status());
  auto system = QuerySystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  Result<QueryAnswer> answer = Status::Internal("unset");
  if (options.method == "exact") {
    answer = system->AnswerExact(*query, options.domain);
  } else if (options.method == "compositional") {
    answer = system->AnswerCompositional(*query, options.domain);
  } else if (options.method == "mc") {
    answer = system->AnswerMonteCarlo(*query, options.domain,
                                      options.samples, options.seed);
  } else {
    return Fail(Status::InvalidArgument(
        StrCat("unknown method '", options.method, "'")));
  }
  if (!answer.ok()) return Fail(answer.status());
  PrintAnswer(*answer);
  return 0;
}

/// \name Streaming mode (--apply-delta)
///
/// Runs the command once on the initial collection, then once after every
/// batch of the delta script, through the incremental delta engine so
/// witnesses, indexes and cached answers stay warm across batches.
/// @{

int RunCheckStreaming(const SourceCollection& collection,
                      const CliOptions& options) {
  auto batches = delta::ParseDeltaScriptFile(options.apply_delta);
  if (!batches.ok()) return Fail(batches.status());
  auto system =
      delta::IncrementalSystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  int exit_code = 0;
  const auto check = [&]() -> int {
    auto report = system->CheckConsistency();
    if (!report.ok()) return Fail(report.status());
    std::printf("verdict: %s  (method %s",
                ConsistencyVerdictToString(report->verdict),
                report->method.c_str());
    if (report->combinations_skipped > 0) {
      std::printf(", %llu combination(s) skipped",
                  static_cast<unsigned long long>(
                      report->combinations_skipped));
    }
    std::printf(")\n");
    if (!report->unknown_reason.empty()) {
      std::printf("reason:  %s\n", report->unknown_reason.c_str());
    }
    if (report->witness.has_value()) {
      std::printf("witness possible world: %zu facts\n",
                  report->witness->size());
    }
    return report->verdict == ConsistencyVerdict::kInconsistent ? 3 : 0;
  };
  std::printf("--- initial collection ---\n");
  int code = check();
  if (code == 1) return 1;  // hard error: stop streaming
  exit_code = std::max(exit_code, code);
  for (size_t i = 0; i < batches->size(); ++i) {
    auto summary = system->ApplyDelta((*batches)[i]);
    if (!summary.ok()) return Fail(summary.status());
    std::printf("--- batch %zu: %s ---\n", i + 1,
                summary->ToString().c_str());
    code = check();
    if (code == 1) return 1;
    exit_code = std::max(exit_code, code);
  }
  return exit_code;
}

int RunAnswerStreaming(const SourceCollection& collection,
                       const CliOptions& options) {
  if (options.method != "exact") {
    return Fail(Status::InvalidArgument(
        "--apply-delta answering supports --method exact only"));
  }
  auto query = ParseQuery(options.query);
  if (!query.ok()) return Fail(query.status());
  auto batches = delta::ParseDeltaScriptFile(options.apply_delta);
  if (!batches.ok()) return Fail(batches.status());
  auto system =
      delta::IncrementalSystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  const auto answer_once = [&]() -> int {
    // Refresh consistency first: cached answers are only reusable while
    // the collection is known consistent at the current generation.
    auto report = system->CheckConsistency();
    if (!report.ok()) return Fail(report.status());
    if (report->verdict != ConsistencyVerdict::kConsistent) {
      std::printf("collection is %s; no worlds to answer over\n",
                  ConsistencyVerdictToString(report->verdict));
      return 3;
    }
    // Without --domain, track the drifting collection: deltas can mention
    // constants the initial collection did not.
    const std::vector<Value> domain =
        options.domain_given ? options.domain
                             : system->CollectionSnapshot().MentionedConstants();
    auto answer = system->AnswerExact(*query, domain);
    if (!answer.ok()) return Fail(answer.status());
    PrintAnswer(*answer);
    return 0;
  };
  std::printf("--- initial collection ---\n");
  int exit_code = answer_once();
  if (exit_code == 1) return 1;  // hard error: stop streaming
  for (size_t i = 0; i < batches->size(); ++i) {
    auto summary = system->ApplyDelta((*batches)[i]);
    if (!summary.ok()) return Fail(summary.status());
    std::printf("--- batch %zu: %s ---\n", i + 1,
                summary->ToString().c_str());
    const int code = answer_once();
    if (code == 1) return 1;
    exit_code = std::max(exit_code, code);
  }
  return exit_code;
}

/// @}

int RunCertain(const SourceCollection& collection,
               const CliOptions& options) {
  auto query = ParseQuery(options.query);
  if (!query.ok()) return Fail(query.status());
  auto plan = CompileQuery(*query);
  if (!plan.ok()) return Fail(plan.status());
  // Certain answers are undefined over an empty poss(S), and the bound
  // cannot tell: a combination whose cardinality constraints no database
  // meets still yields a tableau. So consistency is decided first.
  auto system = QuerySystem::Create(collection, SystemOptions(options));
  if (!system.ok()) return Fail(system.status());
  auto report = system->CheckConsistency();
  if (!report.ok()) return Fail(report.status());
  if (report->verdict == ConsistencyVerdict::kInconsistent) {
    return Fail(Status::Inconsistent(
        "poss(S) is empty: query answers are undefined"));
  }
  if (report->verdict == ConsistencyVerdict::kUnknown) {
    std::printf("consistency not decided (%s): the bound assumes poss(S) "
                "is non-empty\n",
                report->unknown_reason.c_str());
  }
  auto bound = CertainAnswerLowerBound(collection, *plan, CliBudget(options));
  if (!bound.ok()) return Fail(bound.status());
  std::printf("template-based certain lower bound (%llu combinations%s):\n",
              static_cast<unsigned long long>(bound->combinations),
              bound->truncated ? ", truncated" : "");
  for (const Tuple& tuple : bound->certain) {
    std::printf("  %s\n", TupleToString(tuple).c_str());
  }
  BucketRewriter rewriter(&collection);
  auto rewritings = rewriter.Rewrite(*query);
  auto view_answer = rewriter.AnswerUsingViews(*query);
  if (rewritings.ok() && view_answer.ok()) {
    std::printf("view-based answer (%zu rewritings; certain when the used "
                "sources are fully sound):\n",
                rewritings->size());
    for (const Tuple& tuple : *view_answer) {
      std::printf("  %s\n", TupleToString(tuple).c_str());
    }
  }
  return 0;
}

int RunConsensus(const SourceCollection& collection,
                 const CliOptions& options) {
  auto instance = IdentityInstance::CreateOverExtensions(collection);
  if (!instance.ok()) return Fail(instance.status());
  auto consensus = ComputeSourceConsensus(*instance, CliBudget(options));
  if (!consensus.ok()) return Fail(consensus.status());
  std::printf("%-12s | %10s | %10s | %10s | %10s | %8s\n", "source",
              "E[sound]", "claimed", "E[compl]", "claimed", "slack");
  for (const SourceConsensus& entry : *consensus) {
    std::printf("%-12s | %10.4f | %10.4f | %10.4f | %10.4f | %+8.4f\n",
                entry.name.c_str(), entry.expected_soundness,
                entry.claimed_soundness, entry.expected_completeness,
                entry.claimed_completeness, entry.soundness_slack);
  }
  return 0;
}

int RunAudit(const SourceCollection& collection, const CliOptions& options) {
  GeneralConsistencyChecker::Options checker_options;
  checker_options.threads = options.threads;
  checker_options.budget = CliBudget(options);
  GeneralConsistencyChecker checker(checker_options);
  auto report = checker.Check(collection);
  if (!report.ok()) return Fail(report.status());
  std::printf("verdict: %s\n", ConsistencyVerdictToString(report->verdict));
  if (report->verdict == ConsistencyVerdict::kConsistent) return 0;

  auto blames = BlameSources(collection, checker);
  if (!blames.ok()) return Fail(blames.status());
  std::printf("\nblame (verdict without each source):\n");
  for (const SourceBlame& blame : *blames) {
    std::printf("  %-12s -> %s\n", blame.source_name.c_str(),
                ConsistencyVerdictToString(blame.verdict_without));
  }

  auto maximal = MaximalConsistentSubcollections(collection, checker);
  if (maximal.ok()) {
    std::printf("\nmaximal consistent sub-collections:\n");
    for (const std::vector<std::string>& names : *maximal) {
      std::printf("  { %s }\n", Join(names, ", ").c_str());
    }
  }

  auto lambda = MaxUniformRelaxation(collection, checker);
  if (lambda.ok()) {
    std::printf("\nmax uniform relaxation factor: %s (= %.4f)\n",
                lambda->ToString().c_str(), lambda->ToDouble());
  }
  return 3;
}

/// One-line summary of the headline solver counters, printed after every
/// solving command unless --quiet. Counters read 0 when PSC_OBS=OFF.
void PrintStatsLine(uint64_t start_us) {
  const double elapsed_ms =
      static_cast<double>(obs::TraceNowMicros() - start_us) / 1000.0;
  const obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  std::printf(
      "stats: nodes=%llu combinations=%llu shapes=%llu tuples=%llu "
      "evals=%llu probes=%llu time_ms=%.1f\n",
      static_cast<unsigned long long>(
          metrics.CounterValue("consistency.nodes_expanded")),
      static_cast<unsigned long long>(
          metrics.CounterValue("tableau.combinations_enumerated")),
      static_cast<unsigned long long>(
          metrics.CounterValue("counting.shapes_visited")),
      static_cast<unsigned long long>(
          metrics.CounterValue("algebra.tuples_produced")),
      static_cast<unsigned long long>(
          metrics.CounterValue("eval.execs.compiled")),
      static_cast<unsigned long long>(metrics.CounterValue("eval.probes")),
      elapsed_ms);
}

int Main(int argc, char** argv) {
  InstallInterruptHandler();
  auto options = ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().ToString().c_str());
    return Usage();
  }
  if (options->trace || !options->trace_out.empty()) {
    obs::Options obs_options = obs::GetOptions();
    obs_options.trace_enabled = true;
    obs::SetOptions(obs_options);
  }
  if (options->trace_buffer > 0) {
    obs::GlobalTrace().SetCapacity(options->trace_buffer);
  }
  auto text = ReadFile(options->file);
  if (!text.ok()) return Fail(text.status());
  auto collection = ParseCollection(*text);
  if (!collection.ok()) return Fail(collection.status());
  std::printf("parsed %zu source(s); global schema %s\n", collection->size(),
              collection->schema().ToString().c_str());

  if (!options->domain_given) {
    options->domain = collection->MentionedConstants();
  }

  const std::string& command = options->command;
  // One telemetry scope per solving command: its metric delta, span tree
  // and any limits trip form the per-query section of the run report
  // ("q1" anticipates pscd assigning one ordinal per in-flight request).
  if (command != "print") {
    options->scope = obs::Scope::Create(StrCat("q1:", command));
  }
  const uint64_t start_us = obs::TraceNowMicros();
  int exit_code = -1;
  {
    const obs::ScopeGuard scope_guard(options->scope);
    const bool streaming = !options->apply_delta.empty();
    if (streaming && command != "check" && command != "answer") {
      return Fail(Status::InvalidArgument(
          "--apply-delta supports the check and answer commands only"));
    }
    if (command == "check") {
      exit_code = streaming ? RunCheckStreaming(*collection, *options)
                            : RunCheck(*collection, *options);
    }
    if (command == "print") {
      std::printf("%s\n", collection->ToString().c_str());
      exit_code = 0;
    }
    if (command == "confidences") {
      exit_code = RunConfidences(*collection, *options);
    }
    if (command == "answer") {
      exit_code = streaming ? RunAnswerStreaming(*collection, *options)
                            : RunAnswer(*collection, *options);
    }
    if (command == "certain") exit_code = RunCertain(*collection, *options);
    if (command == "consensus") {
      exit_code = RunConsensus(*collection, *options);
    }
    if (command == "audit") exit_code = RunAudit(*collection, *options);
  }
  if (exit_code < 0) return Usage();

  if (!options->quiet && command != "print") PrintStatsLine(start_us);
  if (options->trace) {
    const std::vector<obs::SpanRecord> spans = obs::GlobalTrace().Snapshot();
    if (spans.empty()) {
      std::printf("trace: no spans recorded\n");
    } else {
      std::printf("trace (%zu spans):\n%s", spans.size(),
                  obs::FormatSpanTree(spans).c_str());
    }
  }
  // Artifact writers run after the command so a failure can no longer
  // mask its verdict (check/audit exit 3 by design): an unwritable path
  // warns and forces a nonzero exit only when the command itself passed.
  int artifact_failures = 0;
  if (!options->metrics_out.empty() || !options->trace_out.empty()) {
    const obs::RunReport report = obs::RunReport::Capture();
    if (!options->metrics_out.empty()) {
      const Status written = report.WriteJsonFile(options->metrics_out);
      if (!written.ok()) {
        obs::LogWarning(StrCat("--metrics-out: ", written.ToString()));
        ++artifact_failures;
      } else if (!options->quiet) {
        std::printf("metrics written to %s\n", options->metrics_out.c_str());
      }
    }
    if (!options->trace_out.empty()) {
      const Status written =
          obs::WriteChromeTraceFile(report, options->trace_out);
      if (!written.ok()) {
        obs::LogWarning(StrCat("--trace-out: ", written.ToString()));
        ++artifact_failures;
      } else if (!options->quiet) {
        std::printf("trace written to %s\n", options->trace_out.c_str());
      }
    }
  }
  if (artifact_failures > 0 && exit_code == 0) exit_code = 1;
  return exit_code;
}

}  // namespace
}  // namespace psc

int main(int argc, char** argv) { return psc::Main(argc, argv); }
