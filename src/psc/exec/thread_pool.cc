#include "psc/exec/thread_pool.h"

#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "psc/obs/log.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/util/string_util.h"

namespace psc {
namespace exec {

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
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  PSC_OBS_COUNTER_INC("exec.pools_created");
  PSC_OBS_GAUGE_SET("exec.pool_threads", n);
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(&mutex_);
    stopping_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    sync::MutexLock lock(&mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.NotifyOne();
  PSC_OBS_COUNTER_INC("exec.tasks_submitted");
}

void ThreadPool::WorkerLoop() {
  std::function<void()> task;
  while (true) {
    {
      sync::MutexLock lock(&mutex_);
      while (queue_.empty() && !stopping_) wake_.Wait(mutex_);
      // A stopping pool still runs what was submitted before it stopped.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const uint64_t started = obs::TraceNowMicros();
    task();
    task = nullptr;  // release captured state promptly
    PSC_OBS_HISTOGRAM_RECORD("exec.task_micros",
                             obs::TraceNowMicros() - started);
    PSC_OBS_COUNTER_INC("exec.tasks_executed");
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
