#ifndef PSC_EXEC_THREAD_POOL_H_
#define PSC_EXEC_THREAD_POOL_H_

/// \file
/// Work-stealing execution runtime for the solver stack.
///
/// The paper's hard kernels are embarrassingly parallel at the top level:
/// the Theorem 3.2 consistency search fans out over the allowable
/// combinations U of Theorem 4.1, the signature/shape counters enumerate
/// independent count-vector subtrees, and Monte-Carlo estimation shards
/// trivially. `ThreadPool` gives them a shared substrate:
///
///  * a fixed worker set (no dynamic growth; sized once at construction),
///  * one task deque per worker — owners pop from the front, idle workers
///    steal from the back of a victim's deque,
///  * cooperative cancellation: `ParallelFor` / `ParallelReduce`
///    (parallel.h) poll a `limits::CancelToken` between shards, so nothing
///    is ever killed mid-flight,
///  * metrics through `psc::obs`: pool gauge, task/steal counters and a
///    task-latency histogram.
///
/// Determinism contract: the pool itself makes no ordering promises; the
/// `ParallelFor` / `ParallelReduce` facade (parallel.h) layers a
/// deterministic shard-order merge on top so solver results are
/// reproducible regardless of thread count.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "psc/sync/mutex.h"

namespace psc {
namespace exec {

/// Number of hardware threads, never 0.
size_t HardwareThreads();

/// \brief Resolves a requested worker count to a concrete one.
///
/// `requested == 0` means "auto": the `PSC_THREADS` environment variable
/// when set to a positive integer, otherwise `HardwareThreads()`. Any
/// positive `requested` is returned unchanged.
size_t ResolveThreadCount(size_t requested);

/// \brief Fixed-size work-stealing thread pool.
///
/// Tasks are arbitrary `std::function<void()>`; error propagation happens
/// through whatever state the task closes over (the library is
/// exception-free). Submission from worker threads lands on the
/// submitter's own deque; external submissions are spread round-robin.
///
/// Destruction drains nothing: the destructor waits for every already
/// submitted task to finish, then joins the workers. Do not submit from a
/// task racing the destructor.
///
/// The solvers do not build pools: they run on `SharedPool`'s. A pool of
/// one's own serves work that must not queue behind the solvers' (pscd's
/// batch fan-out) and tests.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  size_t size() const { return queues_.size(); }

  /// Enqueues `task` for execution. Thread-safe.
  void Submit(std::function<void()> task);

 private:
  struct Queue {
    sync::Mutex mutex{"exec.pool.queue", sync::kRankExecQueue};
    std::deque<std::function<void()>> tasks PSC_GUARDED_BY(mutex);
  };

  void WorkerLoop(size_t index);
  /// Pops from the front of the worker's own deque.
  bool TryPopOwn(size_t index, std::function<void()>* task);
  /// Steals from the back of another worker's deque.
  bool TrySteal(size_t thief, std::function<void()>* task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  sync::Mutex wake_mutex_{"exec.pool.wake", sync::kRankExecWake};
  sync::CondVar wake_cv_;
  /// Tasks submitted but not yet claimed by a worker.
  std::atomic<uint64_t> unclaimed_{0};
  std::atomic<uint64_t> next_queue_{0};
  std::atomic<bool> stopping_{false};
};

/// \brief The process's pool of `workers` threads; null when `workers` is
/// at most 1, where callers run inline.
///
/// The first call for a worker count builds that pool. It lives until the
/// process exits (its workers are never joined), and every later call for
/// the same count, from any thread, returns it. Loops on it are
/// `ParallelFor`/`ParallelReduce`, whose callers run shards themselves, so
/// a shard may fan out on the pool it runs on.
ThreadPool* SharedPool(size_t workers);

}  // namespace exec
}  // namespace psc

#endif  // PSC_EXEC_THREAD_POOL_H_
