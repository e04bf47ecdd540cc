#include "psc/exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "psc/obs/metrics.h"
#include "psc/obs/scope.h"
#include "psc/obs/trace.h"
#include "psc/sync/mutex.h"

namespace psc {
namespace exec {

namespace {

/// One pooled loop's state. The caller and its helpers claim indices from
/// `next` until none is left; each claimed index is run (or skipped after
/// a cancel) by its claimer and then counted in `finished`. Helpers hold
/// the state by shared_ptr and dereference `body` only for an index they
/// claimed, which the caller is still waiting for: a helper that starts
/// after the loop finished claims nothing and touches only this state.
struct Loop {
  Loop(size_t n, const std::function<void(size_t)>* body,
       const limits::CancelToken* cancel)
      : n(n),
        body(body),
        token(cancel != nullptr ? *cancel : limits::CancelToken()),
        cancellable(cancel != nullptr) {}

  /// Claims and runs indices until every index is claimed.
  void RunShards() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancellable && token.cancelled()) {
        PSC_OBS_COUNTER_INC("exec.shards_cancelled");
      } else {
        PSC_OBS_SPAN("exec.shard");
        (*body)(i);
      }
      sync::MutexLock lock(&mutex);
      if (++finished == n) done.NotifyAll();
    }
  }

  /// Blocks until every index finished.
  void Wait() {
    sync::MutexLock lock(&mutex);
    while (finished != n) done.Wait(mutex);
  }

  const size_t n;
  const std::function<void(size_t)>* const body;
  /// A copy: copies share state, so the caller's token need not outlive
  /// late helpers.
  const limits::CancelToken token;
  const bool cancellable;
  std::atomic<size_t> next{0};
  sync::Mutex mutex{"exec.parallel.latch", sync::kRankExecLatch};
  sync::CondVar done;
  size_t finished PSC_GUARDED_BY(mutex) = 0;
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& body,
                 const limits::CancelToken* cancel) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        PSC_OBS_COUNTER_ADD("exec.shards_cancelled", n - i);
        return;
      }
      body(i);
    }
    return;
  }
  const auto loop = std::make_shared<Loop>(n, &body, cancel);
  // The submitting thread's telemetry context (active obs::Scope +
  // innermost open span) travels with every helper, so the query's metric
  // attribution and span tree survive the hop onto pool workers.
  const obs::TraceContext trace_context = obs::CaptureTraceContext();
  // The caller is one of the loop's runners, so it asks for one helper
  // fewer than it could use.
  const size_t helpers = std::min(n, pool->size()) - 1;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([loop, trace_context] {
      const obs::TraceContextGuard trace_guard(trace_context);
      loop->RunShards();
    });
  }
  // The caller never waits for an unclaimed index: it runs them itself,
  // and waits only for shards other threads are running. A shard that
  // calls ParallelFor on the same pool therefore always makes progress,
  // however many of the pool's workers are busy or waiting.
  loop->RunShards();
  loop->Wait();
}

}  // namespace exec
}  // namespace psc
