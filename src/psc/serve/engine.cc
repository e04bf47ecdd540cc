#include "psc/serve/engine.h"

#include <utility>

#include "psc/delta/delta_script.h"
#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/scope.h"
#include "psc/obs/trace.h"
#include "psc/parser/parser.h"
#include "psc/relational/query_plan.h"
#include "psc/rewriting/containment.h"
#include "psc/util/string_util.h"

namespace psc {
namespace serve {

namespace {

/// min of two "0 = unlimited" limits: the tighter nonzero value wins, so
/// a client can only tighten the server ceiling.
template <typename T>
T TightenLimit(T a, T b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return a < b ? a : b;
}

EngineOptions Normalize(EngineOptions options) {
  if (options.max_batch == 0) options.max_batch = 1;
  return options;
}

/// The per-verb instrument switches below are spelled out because the
/// PSC_OBS_* macros cache one static instrument per call site — the
/// metric name must be a literal, not a computed string.
void CountRequest(Verb verb) {
  switch (verb) {
    case Verb::kLoad:
      PSC_OBS_COUNTER_INC("serve.requests.load");
      break;
    case Verb::kCheck:
      PSC_OBS_COUNTER_INC("serve.requests.check");
      break;
    case Verb::kAnswer:
      PSC_OBS_COUNTER_INC("serve.requests.answer");
      break;
    case Verb::kApplyDelta:
      PSC_OBS_COUNTER_INC("serve.requests.apply_delta");
      break;
    case Verb::kStats:
      PSC_OBS_COUNTER_INC("serve.requests.stats");
      break;
    case Verb::kShutdown:
      PSC_OBS_COUNTER_INC("serve.requests.shutdown");
      break;
  }
}

void RecordLatency(Verb verb, uint64_t micros) {
  switch (verb) {
    case Verb::kLoad:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.load", micros);
      break;
    case Verb::kCheck:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.check", micros);
      break;
    case Verb::kAnswer:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.answer", micros);
      break;
    case Verb::kApplyDelta:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.apply_delta", micros);
      break;
    case Verb::kStats:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.stats", micros);
      break;
    case Verb::kShutdown:
      PSC_OBS_HISTOGRAM_RECORD("serve.latency_us.shutdown", micros);
      break;
  }
}

/// Error response with the serve.errors bookkeeping every engine failure
/// path shares.
std::string Fail(const Request& request, const Status& status) {
  PSC_OBS_COUNTER_INC("serve.errors");
  return ErrorResponseLine(&request, status);
}

void OpenResponse(JsonObjectWriter& writer, const Request& request) {
  writer.String("id", request.id);
  writer.String("verb", VerbToString(request.verb));
  writer.Bool("ok", true);
  writer.String("collection", request.collection);
}

std::string FormatAnswerResponse(const Request& request,
                                 const Result<QueryAnswer>& answer) {
  if (!answer.ok()) return Fail(request, answer.status());
  JsonObjectWriter writer;
  OpenResponse(writer, request);
  writer.String("method", answer->method);
  writer.Bool("from_cache", answer->from_cache);
  writer.Uint("worlds_used", answer->worlds_used);
  writer.Bool("truncated", answer->truncated);
  if (answer->truncated) {
    writer.String("truncation_reason", answer->truncation_reason);
  }
  std::string certain = "[";
  for (const Tuple& tuple : answer->certain) {
    if (certain.size() > 1) certain.push_back(',');
    certain.append(StrCat("\"", obs::JsonEscape(TupleToString(tuple)), "\""));
  }
  certain.push_back(']');
  writer.Raw("certain", certain);
  // [tuple, confidence] pairs, confidences rendered with the CLI's six
  // fractional digits so server and one-shot answers compare textually.
  std::string confidences = "[";
  for (const auto& [tuple, confidence] : answer->confidences.entries()) {
    if (confidences.size() > 1) confidences.push_back(',');
    confidences.append(StrCat("[\"", obs::JsonEscape(TupleToString(tuple)),
                              "\",", FormatFixed6(confidence), "]"));
  }
  confidences.push_back(']');
  writer.Raw("confidences", confidences);
  return writer.Finish();
}

}  // namespace

Engine::Engine(const EngineOptions& options)
    : options_(Normalize(options)),
      answer_pool_(exec::SharedPool(exec::ResolveThreadCount(0))) {
  if (options_.plan_cache_capacity > 0) {
    eval::SetQueryPlanCacheCapacity(options_.plan_cache_capacity);
  }
  if (options_.containment_cache_capacity > 0) {
    SetContainmentCacheCapacity(options_.containment_cache_capacity);
  }
  for (size_t i = 0; i < options_.dispatch_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
}

Engine::~Engine() {
  BeginShutdown();
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
}

QuerySystem::Options Engine::SystemOptions() const {
  QuerySystem::Options options;
  options.threads = options_.solver_threads;
  // Every resident system adopts the drain token: one Cancel at shutdown
  // degrades all in-flight solver work instead of racing it to finish.
  options.cancel = drain_token_;
  return options;
}

limits::CallLimits Engine::AdmittedLimits(const Request& request) const {
  limits::CallLimits limits;
  limits.deadline_ms =
      TightenLimit(request.deadline_ms, options_.deadline_ceiling_ms);
  limits.node_budget =
      TightenLimit(request.node_budget, options_.node_budget_ceiling);
  return limits;
}

void Engine::Submit(uint64_t session, const std::string& line,
                    Callback callback) {
  const uint64_t start = obs::TraceNowMicros();
  auto parsed = ParseRequest(line, options_.parse_limits);
  if (!parsed.ok()) {
    PSC_OBS_COUNTER_INC("serve.errors");
    if (callback) callback(ErrorResponseLine(nullptr, parsed.status()));
    return;
  }
  Pending pending;
  pending.request = std::move(*parsed);
  pending.session = session;
  pending.callback = std::move(callback);
  pending.submit_micros = start;

  Status rejection = Status::OK();
  {
    sync::MutexLock lock(&mutex_);
    if (shutdown_) {
      rejection = Status::ResourceExhausted("server is draining");
    } else if (options_.max_queue > 0 && queued_ >= options_.max_queue) {
      rejection = Status::ResourceExhausted(
          StrCat("admission queue full (", queued_, " queued)"));
    } else {
      pending.seq = ++next_seq_;
      std::deque<Pending>& queue = queues_[session];
      if (queue.empty()) rr_order_.push_back(session);
      queue.push_back(std::move(pending));
      ++queued_;
      PSC_OBS_GAUGE_SET("serve.queue_depth",
                        static_cast<int64_t>(queued_));
    }
  }
  if (!rejection.ok()) {
    PSC_OBS_COUNTER_INC("serve.admission_rejections");
    Deliver(pending, Fail(pending.request, rejection));
    return;
  }
  cv_.NotifyOne();
}

std::vector<Engine::Pending> Engine::CollectBatchLocked() {
  std::vector<Pending> batch;
  while (!rr_order_.empty()) {
    const uint64_t session = rr_order_.front();
    rr_order_.pop_front();
    auto it = queues_.find(session);
    if (it == queues_.end() || it->second.empty()) {
      if (it != queues_.end()) queues_.erase(it);
      continue;
    }
    batch.push_back(std::move(it->second.front()));
    it->second.pop_front();
    --queued_;
    if (!it->second.empty()) {
      rr_order_.push_back(session);
    } else {
      queues_.erase(it);
    }
    break;
  }
  if (batch.empty()) return batch;

  // Batching: sweep the current round-robin order once, stealing
  // consecutive compatible fronts (answer against the same collection)
  // from each session. One sweep keeps the fill O(sessions) and cannot
  // starve anyone: each stolen request would have been served in these
  // sessions' next turns anyway.
  // Copied, not referenced: push_back below may reallocate `batch` and
  // would dangle a reference into it.
  const Verb head_verb = batch.front().request.verb;
  const std::string head_collection = batch.front().request.collection;
  if (head_verb == Verb::kAnswer && options_.max_batch > 1) {
    size_t sweep = rr_order_.size();
    while (sweep-- > 0 && batch.size() < options_.max_batch &&
           !rr_order_.empty()) {
      const uint64_t session = rr_order_.front();
      rr_order_.pop_front();
      auto it = queues_.find(session);
      if (it == queues_.end() || it->second.empty()) {
        if (it != queues_.end()) queues_.erase(it);
        continue;
      }
      while (batch.size() < options_.max_batch && !it->second.empty() &&
             it->second.front().request.verb == Verb::kAnswer &&
             it->second.front().request.collection == head_collection) {
        batch.push_back(std::move(it->second.front()));
        it->second.pop_front();
        --queued_;
      }
      if (!it->second.empty()) {
        rr_order_.push_back(session);
      } else {
        queues_.erase(it);
      }
    }
  }
  PSC_OBS_GAUGE_SET("serve.queue_depth", static_cast<int64_t>(queued_));
  return batch;
}

void Engine::DispatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      sync::MutexLock lock(&mutex_);
      while (queued_ == 0 && !shutdown_) cv_.Wait(mutex_);
      if (queued_ == 0 && shutdown_) return;
      batch = CollectBatchLocked();
      if (batch.empty()) continue;
      in_flight_ += batch.size();
    }
    const size_t executed = batch.size();
    ExecuteBatch(std::move(batch));
    {
      sync::MutexLock lock(&mutex_);
      in_flight_ -= executed;
      if (queued_ == 0 && in_flight_ == 0) drained_cv_.NotifyAll();
    }
  }
}

bool Engine::PumpOne() {
  std::vector<Pending> batch;
  {
    sync::MutexLock lock(&mutex_);
    batch = CollectBatchLocked();
    if (batch.empty()) return false;
    in_flight_ += batch.size();
  }
  const size_t executed = batch.size();
  ExecuteBatch(std::move(batch));
  {
    sync::MutexLock lock(&mutex_);
    in_flight_ -= executed;
    if (queued_ == 0 && in_flight_ == 0) drained_cv_.NotifyAll();
  }
  return true;
}

std::string Engine::Call(uint64_t session, const std::string& line) {
  sync::Mutex done_mutex{"serve.engine.call_done", sync::kRankServeDone};
  sync::CondVar done_cv;
  std::string response;
  bool done = false;
  Submit(session, line, [&](const std::string& response_line) {
    // Notify *under* the lock: done_mutex/done_cv live on Call's stack,
    // and the waiter frees them the moment it observes `done` — which it
    // cannot do before this critical section ends, so the signal always
    // completes against a live condition variable.
    sync::MutexLock lock(&done_mutex);
    response = response_line;
    done = true;
    done_cv.NotifyOne();
  });
  if (options_.dispatch_threads == 0) {
    for (;;) {
      {
        sync::MutexLock lock(&done_mutex);
        if (done) return response;
      }
      if (!PumpOne()) break;  // delivered by this pump or already rejected
    }
  }
  sync::MutexLock lock(&done_mutex);
  while (!done) done_cv.Wait(done_mutex);
  return response;
}

void Engine::BeginShutdown() {
  std::function<void()> notify;
  {
    sync::MutexLock lock(&mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    notify = shutdown_notify_;
  }
  drain_token_.Cancel();
  cv_.NotifyAll();
  if (notify) notify();
}

void Engine::Drain() {
  if (options_.dispatch_threads == 0) {
    while (PumpOne()) {
    }
    return;
  }
  sync::MutexLock lock(&mutex_);
  while (queued_ > 0 || in_flight_ > 0) drained_cv_.Wait(mutex_);
}

bool Engine::draining() const {
  sync::MutexLock lock(&mutex_);
  return shutdown_;
}

void Engine::SetShutdownNotify(std::function<void()> notify) {
  sync::MutexLock lock(&mutex_);
  shutdown_notify_ = std::move(notify);
}

void Engine::ExecuteBatch(std::vector<Pending> batch) {
  if (batch.front().request.verb == Verb::kAnswer) {
    ExecuteAnswerBatch(batch);
    return;
  }
  for (Pending& pending : batch) ExecuteOne(pending);
}

void Engine::ExecuteOne(Pending& pending) {
  Deliver(pending, Execute(pending));
}

std::string Engine::Execute(Pending& pending) {
  obs::Scope scope;
  if (options_.per_request_scopes) {
    scope = obs::Scope::Create(StrCat(
        "serve:", VerbToString(pending.request.verb), ":", pending.seq));
  }
  const obs::ScopeGuard scope_guard(scope);
  switch (pending.request.verb) {
    case Verb::kLoad:
      return DoLoad(pending.request);
    case Verb::kCheck:
      return DoCheck(pending.request);
    case Verb::kApplyDelta:
      return DoApplyDelta(pending.request);
    case Verb::kShutdown:
      return DoShutdown(pending.request);
    case Verb::kStats: {
      JsonObjectWriter writer;
      OpenResponse(writer, pending.request);
      writer.Raw("stats", StatsJson());
      return writer.Finish();
    }
    case Verb::kAnswer:
      break;  // handled by ExecuteAnswerBatch
  }
  return Fail(pending.request, Status::Internal("unroutable verb"));
}

Result<std::shared_ptr<delta::IncrementalSystem>> Engine::FindSystem(
    const std::string& name) {
  sync::MutexLock lock(&collections_mutex_);
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound(
        StrCat("no collection named '", name, "' is loaded"));
  }
  return it->second;
}

std::string Engine::DoLoad(const Request& request) {
  auto collection = ParseCollection(request.text);
  if (!collection.ok()) return Fail(request, collection.status());
  const size_t sources = collection->size();
  auto system =
      delta::IncrementalSystem::Create(std::move(*collection), SystemOptions());
  if (!system.ok()) return Fail(request, system.status());
  bool reloaded = false;
  {
    sync::MutexLock lock(&collections_mutex_);
    reloaded = collections_.count(request.collection) > 0;
    collections_[request.collection] =
        std::make_shared<delta::IncrementalSystem>(std::move(*system));
  }
  JsonObjectWriter writer;
  OpenResponse(writer, request);
  writer.Uint("sources", sources);
  writer.Bool("reloaded", reloaded);
  return writer.Finish();
}

std::string Engine::DoCheck(const Request& request) {
  auto system = FindSystem(request.collection);
  if (!system.ok()) return Fail(request, system.status());
  const limits::ScopedCallLimits limits_guard(AdmittedLimits(request));
  auto report = (*system)->CheckConsistency();
  if (!report.ok()) return Fail(request, report.status());
  JsonObjectWriter writer;
  OpenResponse(writer, request);
  writer.String("verdict", ConsistencyVerdictToString(report->verdict));
  writer.String("method", report->method);
  if (report->verdict == ConsistencyVerdict::kUnknown) {
    writer.String("unknown_reason", report->unknown_reason);
  }
  writer.Uint("combinations_tried", report->combinations_tried);
  writer.Uint("combinations_skipped", report->combinations_skipped);
  return writer.Finish();
}

std::string Engine::DoApplyDelta(const Request& request) {
  auto system = FindSystem(request.collection);
  if (!system.ok()) return Fail(request, system.status());
  auto batches = delta::ParseDeltaScript(request.script);
  if (!batches.ok()) return Fail(request, batches.status());
  uint64_t inserted = 0;
  uint64_t retracted = 0;
  uint64_t noops = 0;
  size_t applied = 0;
  for (const CollectionDelta& delta : *batches) {
    auto summary = (*system)->ApplyDelta(delta);
    if (!summary.ok()) {
      // SourceCollection::ApplyDelta is all-or-nothing per batch, so the
      // failed batch left no partial state — but earlier batches stuck.
      return Fail(request,
                  Status::InvalidArgument(StrCat(
                      summary.status().ToString(), " (after ", applied, " of ",
                      batches->size(), " batches applied)")));
    }
    inserted += summary->inserted;
    retracted += summary->retracted;
    noops += summary->noops;
    ++applied;
  }
  JsonObjectWriter writer;
  OpenResponse(writer, request);
  writer.Uint("batches", applied);
  writer.Uint("inserted", inserted);
  writer.Uint("retracted", retracted);
  writer.Uint("noops", noops);
  writer.Uint("generation", (*system)->generation());
  return writer.Finish();
}

std::string Engine::DoShutdown(const Request& request) {
  BeginShutdown();
  JsonObjectWriter writer;
  OpenResponse(writer, request);
  writer.Bool("draining", true);
  return writer.Finish();
}

void Engine::ExecuteAnswerBatch(std::vector<Pending>& batch) {
  PSC_OBS_HISTOGRAM_RECORD("serve.batch.size", batch.size());
  auto system = FindSystem(batch.front().request.collection);
  if (!system.ok()) {
    for (Pending& pending : batch) {
      Deliver(pending, Fail(pending.request, system.status()));
    }
    return;
  }
  delta::IncrementalSystem* resident = system->get();

  // One consistency check covers the whole batch: it refreshes the cached
  // report so answer-cache reuse is possible at all (see incremental.h).
  // Failures are not fatal here — each answer surfaces its own.
  (void)resident->CheckConsistency();

  // The default domain (current snapshot's mentioned constants) is also
  // shared by every request that did not pin one explicitly.
  std::vector<Value> default_domain;
  bool need_default = false;
  for (const Pending& pending : batch) {
    if (!pending.request.domain_given) {
      need_default = true;
      break;
    }
  }
  if (need_default) {
    default_domain = resident->CollectionSnapshot().MentionedConstants();
  }

  // Identical (query, domain) pairs are answered once and fanned back out
  // to every requester — the common case when many sessions poll the same
  // dashboard query.
  struct Unique {
    size_t rep = 0;
    std::vector<size_t> members;
    Result<QueryAnswer> answer = Status::Internal("unanswered");
  };
  std::vector<Unique> uniques;
  std::map<std::string, size_t> by_key;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i].request;
    const std::string key =
        StrCat(request.query, "\x01",
               request.domain_given ? TupleToString(request.domain) : "\x02");
    auto [it, inserted] = by_key.emplace(key, uniques.size());
    if (inserted) {
      Unique unique;
      unique.rep = i;
      uniques.push_back(std::move(unique));
    }
    uniques[it->second].members.push_back(i);
  }
  PSC_OBS_COUNTER_ADD("serve.batch.dedup_hits",
                      batch.size() - uniques.size());

  // The single exec pass over the batch's distinct queries.
  const auto run = [&](size_t u) {
    Pending& rep = batch[uniques[u].rep];
    obs::Scope scope;
    if (options_.per_request_scopes) {
      scope = obs::Scope::Create(StrCat("serve:answer:", rep.seq));
    }
    const obs::ScopeGuard scope_guard(scope);
    const limits::ScopedCallLimits limits_guard(AdmittedLimits(rep.request));
    auto query = ParseQuery(rep.request.query);
    if (!query.ok()) {
      uniques[u].answer = query.status();
      return;
    }
    const std::vector<Value>& domain =
        rep.request.domain_given ? rep.request.domain : default_domain;
    uniques[u].answer = resident->AnswerExact(*query, domain);
  };
  exec::ParallelFor(answer_pool_, uniques.size(), run);

  for (const Unique& unique : uniques) {
    for (const size_t member : unique.members) {
      Deliver(batch[member],
              FormatAnswerResponse(batch[member].request, unique.answer));
    }
  }
}

std::string Engine::StatsJson() {
  JsonObjectWriter stats;
  {
    sync::MutexLock lock(&mutex_);
    stats.Bool("accepting", !shutdown_);
    stats.Uint("queue_depth", queued_);
    stats.Uint("in_flight", in_flight_);
  }
  {
    JsonObjectWriter plan_cache;
    plan_cache.Uint("size", eval::QueryPlanCacheSize());
    plan_cache.Uint("capacity", eval::QueryPlanCacheCapacity());
    stats.Raw("plan_cache", plan_cache.Finish());
    JsonObjectWriter containment_cache;
    containment_cache.Uint("size", ContainmentCacheSize());
    containment_cache.Uint("capacity", ContainmentCacheCapacity());
    stats.Raw("containment_cache", containment_cache.Finish());
  }
  {
    sync::MutexLock lock(&collections_mutex_);
    JsonObjectWriter collections;
    for (const auto& [name, system] : collections_) {
      JsonObjectWriter entry;
      entry.Uint("sources", system->CollectionSnapshot().size());
      entry.Uint("generation", system->generation());
      entry.Uint("answer_cache", system->AnswerCacheSize());
      collections.Raw(name.c_str(), entry.Finish());
    }
    stats.Raw("collections", collections.Finish());
  }
  return stats.Finish();
}

void Engine::Deliver(Pending& pending, const std::string& response) {
  CountRequest(pending.request.verb);
  const uint64_t now = obs::TraceNowMicros();
  RecordLatency(pending.request.verb,
                now > pending.submit_micros ? now - pending.submit_micros : 0);
  if (pending.callback) pending.callback(response);
}

}  // namespace serve
}  // namespace psc
