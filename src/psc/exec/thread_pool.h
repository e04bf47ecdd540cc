#ifndef PSC_EXEC_THREAD_POOL_H_
#define PSC_EXEC_THREAD_POOL_H_

/// \file
/// The thread pool behind the solvers' parallel loops.
///
/// The paper's hard kernels are embarrassingly parallel at the top level:
/// the Theorem 3.2 consistency search fans out over the allowable
/// combinations U of Theorem 4.1, the signature/shape counters enumerate
/// independent count-vector subtrees, and Monte-Carlo estimation shards
/// trivially. They run as `ParallelFor` / `ParallelReduce` loops
/// (parallel.h) on a `ThreadPool`:
///
///  * a fixed worker set (no dynamic growth; sized once at construction),
///  * one FIFO of tasks under one lock. Every task the solvers submit is
///    a loop's helper, which claims indices from its loop's shared
///    counter, so the counter balances the work and the pool needs no
///    per-worker queues or stealing,
///  * cooperative cancellation: `ParallelFor` / `ParallelReduce` poll a
///    `limits::CancelToken` between shards, so nothing is ever killed
///    mid-flight,
///  * metrics through `psc::obs`: pool gauge, task counters and a
///    task-latency histogram.
///
/// Determinism contract: tasks start in submission order but may finish
/// in any order; the `ParallelFor` / `ParallelReduce` facade (parallel.h)
/// layers a deterministic shard-order merge on top so solver results are
/// reproducible regardless of thread count.

#include <cstddef>
#include <deque>
#include <functional>
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

/// \brief Fixed-size thread pool: one FIFO of tasks that every worker
/// pops from.
///
/// Tasks are arbitrary `std::function<void()>`; error propagation happens
/// through whatever state the task closes over (the library is
/// exception-free). Workers start tasks in submission order, and a task
/// may submit more.
///
/// The destructor lets the workers run every task already submitted,
/// then joins them. Do not submit from a task racing the destructor.
///
/// Production code builds no pool of its own: the solvers and pscd's
/// answer batches run on `SharedPool`'s. Tests and benches build pools of
/// a fixed size.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution. Thread-safe.
  void Submit(std::function<void()> task);

 private:
  /// Pops and runs tasks until the pool stops and the queue is empty.
  void WorkerLoop();

  sync::Mutex mutex_{"exec.pool.queue", sync::kRankExecQueue};
  sync::CondVar wake_;
  std::deque<std::function<void()>> queue_ PSC_GUARDED_BY(mutex_);
  bool stopping_ PSC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
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
