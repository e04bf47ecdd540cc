#include "psc/exec/thread_pool.h"

#include <cstdlib>
#include <map>
#include <string>

#include "psc/obs/log.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {
namespace exec {

namespace {

/// Worker index of the current thread inside *some* pool, or SIZE_MAX.
/// Used to route nested submissions onto the submitter's own deque. A
/// thread only ever belongs to one pool, so a plain thread-local suffices.
thread_local size_t tls_worker_index = SIZE_MAX;
thread_local const void* tls_worker_pool = nullptr;

}  // namespace

size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ResolveThreadCount(size_t requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("PSC_THREADS");
  if (env == nullptr || env[0] == '\0') return HardwareThreads();
  constexpr unsigned long long kMaxThreads = 1024;
  if (env[0] != '-') {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    // Bounded: "-1" (rejected above) or an absurd count would otherwise
    // wrap into a request for ~2^64 workers. Out-of-range values fall
    // back to the hardware count like any other unparsable setting.
    if (end != nullptr && *end == '\0' && parsed > 0 &&
        parsed <= kMaxThreads) {
      return static_cast<size_t>(parsed);
    }
  }
  // The fallback used to be silent, which made typos ("0", "-1", "abc",
  // "1025") indistinguishable from a deliberate auto setting. Warn once
  // per distinct junk value so repeated pool construction stays quiet.
  obs::LogWarningOnce(
      StrCat("ignoring invalid PSC_THREADS value '", env,
             "' (expected an integer in [1, ", kMaxThreads,
             "]); using hardware concurrency ", HardwareThreads()));
  return HardwareThreads();
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? 1 : num_threads;
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  PSC_OBS_COUNTER_INC("exec.pools_created");
  PSC_OBS_GAUGE_SET("exec.pool_threads", n);
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(&wake_mutex_);
    stopping_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t target;
  if (tls_worker_pool == this) {
    target = tls_worker_index;  // nested spawn: stay local
  } else {
    target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  }
  {
    sync::MutexLock lock(&queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  unclaimed_.fetch_add(1, std::memory_order_release);
  {
    // Taking the wake mutex orders this notify against the predicate
    // check inside the workers' wait, preventing lost wakeups.
    sync::MutexLock lock(&wake_mutex_);
  }
  wake_cv_.NotifyOne();
  PSC_OBS_COUNTER_INC("exec.tasks_submitted");
}

bool ThreadPool::TryPopOwn(size_t index, std::function<void()>* task) {
  Queue& queue = *queues_[index];
  sync::MutexLock lock(&queue.mutex);
  if (queue.tasks.empty()) return false;
  *task = std::move(queue.tasks.front());
  queue.tasks.pop_front();
  return true;
}

bool ThreadPool::TrySteal(size_t thief, std::function<void()>* task) {
  const size_t n = queues_.size();
  for (size_t offset = 1; offset < n; ++offset) {
    Queue& victim = *queues_[(thief + offset) % n];
    sync::MutexLock lock(&victim.mutex);
    if (victim.tasks.empty()) continue;
    *task = std::move(victim.tasks.back());
    victim.tasks.pop_back();
    PSC_OBS_COUNTER_INC("exec.steals");
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t index) {
  tls_worker_index = index;
  tls_worker_pool = this;
  std::function<void()> task;
  while (true) {
    if (TryPopOwn(index, &task) || TrySteal(index, &task)) {
      unclaimed_.fetch_sub(1, std::memory_order_acquire);
      const uint64_t started = obs::TraceNowMicros();
      task();
      task = nullptr;  // release captured state promptly
      PSC_OBS_HISTOGRAM_RECORD("exec.task_micros",
                               obs::TraceNowMicros() - started);
      PSC_OBS_COUNTER_INC("exec.tasks_executed");
      continue;
    }
    sync::MutexLock lock(&wake_mutex_);
    while (!stopping_.load(std::memory_order_relaxed) &&
           unclaimed_.load(std::memory_order_acquire) == 0) {
      wake_cv_.Wait(wake_mutex_);
    }
    if (stopping_.load(std::memory_order_relaxed) &&
        unclaimed_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

ThreadPool* SharedPool(size_t workers) {
  if (workers <= 1) return nullptr;
  struct Registry {
    sync::Mutex mutex{"exec.pool.registry", sync::kRankExecRegistry};
    std::map<size_t, std::unique_ptr<ThreadPool>> pools PSC_GUARDED_BY(mutex);
  };
  // Never destroyed, like the metric registries its pools' workers write
  // to: a worker may still be returning from a task while the process
  // exits.
  static Registry* registry = new Registry();
  sync::MutexLock lock(&registry->mutex);
  std::unique_ptr<ThreadPool>& pool = registry->pools[workers];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
  return pool.get();
}

}  // namespace exec
}  // namespace psc
