#ifndef PSC_SERVE_ENGINE_H_
#define PSC_SERVE_ENGINE_H_

/// \file
/// The resident query engine behind pscd.
///
/// One `Engine` owns a registry of named collections, each wrapped in a
/// `delta::IncrementalSystem` that stays alive across requests — compiled
/// eval plans, hash indexes, the containment memo, consistency witnesses
/// and delta-scoped answer caches all stay warm, which is the entire
/// point of a server over the one-shot CLI (where every invocation pays
/// parse + plan + check from scratch).
///
/// Request flow:
///
///   Submit(session, line, callback)
///     │  parse (protocol.h), admission control: draining ⇒ reject,
///     │  queue full ⇒ reject (serve.admission_rejections)
///     ▼
///   fair-share queue: one FIFO per session, sessions served round-robin
///     │  so a client streaming thousands of requests cannot starve an
///     ▼  interactive one
///   dispatcher: pops the next session's request; an `answer` request
///     │  additionally *batches* compatible answers (same verb, same
///     │  collection) from the fronts of other sessions' queues, up to
///     ▼  max_batch
///   batch execution: ONE consistency check for the whole batch,
///      duplicate (query, domain) pairs answered once
///      (serve.batch.dedup_hits), distinct queries fanned out on a single
///      `exec::ParallelFor` pass; every request's response carries its
///      own id and is delivered through its own callback.
///
/// Per-request limits ride `limits::ScopedCallLimits`: the engine merges
/// the request's deadline_ms/node_budget with the server ceilings (the
/// tighter value wins, so clients can only tighten) and installs the
/// overlay around execution — every budget the solver stack builds under
/// the call obeys it, with the usual graceful degradation.
///
/// Shutdown: `BeginShutdown` stops admission, cancels the engine's drain
/// token (adopted by every resident system, so in-flight solver work
/// degrades promptly instead of running to completion), and wakes the
/// dispatchers, which drain the remaining queue — every accepted request
/// still gets a response line — before `Drain` returns.
///
/// Threading: `dispatch_threads > 0` runs that many dispatcher threads;
/// `dispatch_threads == 0` runs none and the owner pumps explicitly with
/// `PumpOne()` — deterministic single-threaded mode for tests and for the
/// in-process benchmark's cold baseline.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psc/delta/incremental.h"
#include "psc/exec/parallel.h"
#include "psc/limits/budget.h"
#include "psc/serve/protocol.h"
#include "psc/sync/mutex.h"
#include "psc/util/result.h"

namespace psc {
namespace serve {

struct EngineOptions {
  /// Solver threads per request (QuerySystem::Options::threads; 0 = auto).
  size_t solver_threads = 0;
  /// Dispatcher threads pulling batches off the queue. 0 = no background
  /// dispatch: the owner calls PumpOne() (deterministic test mode).
  size_t dispatch_threads = 2;
  /// Admission control: queued (not yet executing) requests beyond this
  /// are rejected with ResourceExhausted. 0 = unbounded.
  size_t max_queue = 1024;
  /// Upper bound on one answer batch (≥ 1).
  size_t max_batch = 16;
  /// Server-side request-limit ceilings, merged (tighter wins) with each
  /// request's own deadline_ms/node_budget. 0 = none.
  int64_t deadline_ceiling_ms = 0;
  uint64_t node_budget_ceiling = 0;
  /// Capacity caps installed at construction for the process-global
  /// compiled-plan cache and containment memo (0 = leave unbounded) —
  /// a resident server must bound what the one-shot CLI could let grow.
  size_t plan_cache_capacity = 0;
  size_t containment_cache_capacity = 0;
  /// Give every request its own obs::Scope named "serve:<verb>:<seq>" so
  /// run reports break work down per request. Off by default: scopes
  /// accumulate in the report for as long as a handle lives.
  bool per_request_scopes = false;
  ParseLimits parse_limits;
};

/// \brief The resident dispatcher. Thread-safe; one per server process.
class Engine {
 public:
  /// Receives exactly one response line (no trailing newline) per
  /// submitted request. Invoked from a dispatcher thread (or from inside
  /// Submit/PumpOne in manual mode); must be callable concurrently with
  /// other requests' callbacks.
  using Callback = std::function<void(const std::string& response_line)>;

  explicit Engine(const EngineOptions& options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// \brief Submits one raw request line on behalf of `session`.
  ///
  /// Always results in exactly one callback invocation: parse failures
  /// and admission rejections deliver an error response synchronously,
  /// accepted requests asynchronously after execution. Sessions are
  /// scheduled fairly (round-robin over sessions with queued work).
  void Submit(uint64_t session, const std::string& line, Callback callback);

  /// \brief Manual-dispatch mode: executes the next batch on the calling
  /// thread. Returns false when the queue was empty. Only meaningful with
  /// dispatch_threads == 0.
  bool PumpOne();

  /// \brief Convenience for tests and the benchmark's scripted clients:
  /// Submit + pump-if-manual + wait for the response line.
  std::string Call(uint64_t session, const std::string& line);

  /// \brief Stops admission, cancels resident systems' drain token and
  /// wakes dispatchers. Idempotent.
  void BeginShutdown();

  /// \brief Blocks until every accepted request has been answered. In
  /// manual mode, pumps the queue dry instead of blocking.
  void Drain();

  /// True once BeginShutdown ran.
  bool draining() const;

  /// Hook invoked (once) from BeginShutdown, so a socket front-end can
  /// wake its poll loop. Set before serving begins.
  void SetShutdownNotify(std::function<void()> notify);

  /// The engine's stats document (the `stats` verb's payload), also
  /// usable directly by front-ends.
  std::string StatsJson();

 private:
  struct Pending {
    Request request;
    uint64_t session = 0;
    Callback callback;
    /// steady_clock micros at Submit, for serve.latency_us.<verb>.
    uint64_t submit_micros = 0;
    /// Sequence number, for per-request scope names.
    uint64_t seq = 0;
  };

  void DispatchLoop();
  /// Pops the next fair-share batch. Empty result when no work is queued.
  std::vector<Pending> CollectBatchLocked() PSC_REQUIRES(mutex_);
  void ExecuteBatch(std::vector<Pending> batch);
  void ExecuteOne(Pending& pending);
  /// Runs the verb and returns the response line (ok or error).
  std::string Execute(Pending& pending);

  std::string DoLoad(const Request& request);
  std::string DoCheck(const Request& request);
  std::string DoApplyDelta(const Request& request);
  std::string DoShutdown(const Request& request);
  /// Batched answering: one consistency check, deduped queries, one
  /// ParallelFor pass. Delivers every response itself.
  void ExecuteAnswerBatch(std::vector<Pending>& batch);

  /// Registry lookup; NotFound naming the collection when absent. Shared
  /// ownership so a concurrent `load` replacing the entry cannot free a
  /// system another dispatcher is still executing against.
  Result<std::shared_ptr<delta::IncrementalSystem>> FindSystem(
      const std::string& name);

  QuerySystem::Options SystemOptions() const;
  limits::CallLimits AdmittedLimits(const Request& request) const;
  void Deliver(Pending& pending, const std::string& response);

  const EngineOptions options_;
  limits::CancelToken drain_token_;

  sync::Mutex collections_mutex_{"serve.engine.collections",
                                 sync::kRankServeCollections};
  std::map<std::string, std::shared_ptr<delta::IncrementalSystem>>
      collections_ PSC_GUARDED_BY(collections_mutex_);

  /// The outermost lock of the process: dispatch holds it while touching
  /// the queues and may emit obs metrics (inner ranks) before releasing.
  mutable sync::Mutex mutex_{"serve.engine.queue", sync::kRankServeQueue};
  sync::CondVar cv_;
  sync::CondVar drained_cv_;
  std::map<uint64_t, std::deque<Pending>> queues_ PSC_GUARDED_BY(mutex_);
  /// Sessions with queued work, in round-robin service order.
  std::deque<uint64_t> rr_order_ PSC_GUARDED_BY(mutex_);
  size_t queued_ PSC_GUARDED_BY(mutex_) = 0;
  size_t in_flight_ PSC_GUARDED_BY(mutex_) = 0;
  uint64_t next_seq_ PSC_GUARDED_BY(mutex_) = 0;
  bool shutdown_ PSC_GUARDED_BY(mutex_) = false;
  std::function<void()> shutdown_notify_ PSC_GUARDED_BY(mutex_);

  /// The `exec::SharedPool` one answer batch's distinct queries fan out
  /// on, of the resolved default thread count (`PSC_THREADS` or the
  /// hardware's); null at one worker. A batch of n distinct queries
  /// submits min(n, workers) − 1 helpers, and n ≤ max_batch.
  /// Solver fan-outs (a `check`'s freeze search) may share it: a batch's
  /// queries run only `IncrementalSystem::AnswerExact`, which never fans
  /// out, and a `ParallelFor` caller runs every index no helper claimed,
  /// so a batch never waits behind queued solver work.
  exec::ThreadPool* const answer_pool_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace serve
}  // namespace psc

#endif  // PSC_SERVE_ENGINE_H_
