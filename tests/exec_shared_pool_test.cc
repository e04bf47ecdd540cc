// Tests of the process-wide pools (exec::SharedPool) and of ParallelFor's
// caller-runs wait: loops nested inside their own shards on one shared
// pool, helpers that start after their loop returned, and skipped shards
// counted when the caller runs them.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "psc/exec/parallel.h"
#include "psc/exec/thread_pool.h"
#include "psc/limits/budget.h"
#include "psc/obs/metrics.h"

namespace psc {
namespace {

/// How long a loop that should finish in milliseconds may take before the
/// test calls it a deadlock.
constexpr std::chrono::seconds kDeadlockTimeout(30);

TEST(SharedPoolTest, OnePoolPerWorkerCount) {
  EXPECT_EQ(exec::SharedPool(0), nullptr);
  EXPECT_EQ(exec::SharedPool(1), nullptr);
  exec::ThreadPool* const two = exec::SharedPool(2);
  ASSERT_NE(two, nullptr);
  EXPECT_EQ(two->size(), 2u);
  EXPECT_EQ(exec::SharedPool(2), two);
  exec::ThreadPool* const three = exec::SharedPool(3);
  ASSERT_NE(three, nullptr);
  EXPECT_NE(three, two);
  EXPECT_EQ(three->size(), 3u);
  // Every thread gets the same pool for a count.
  exec::ThreadPool* seen = nullptr;
  std::thread other([&seen] { seen = exec::SharedPool(2); });
  other.join();
  EXPECT_EQ(seen, two);
}

TEST(SharedPoolTest, LoopsNestedThreeDeepOnTwoWorkersComplete) {
  // Each level is wider than the pool. Were callers to wait for queued
  // shards, the first level's shards would take both workers, and each
  // would then wait for second-level shards that no thread is free to run.
  constexpr size_t kWidth = 5;
  exec::ThreadPool* const pool = exec::SharedPool(2);
  ASSERT_NE(pool, nullptr);
  // Shared with the runner thread, which outlives the test if it hangs.
  auto visits =
      std::make_shared<std::vector<std::atomic<int>>>(kWidth * kWidth * kWidth);
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread runner([pool, visits, done] {
    exec::ParallelFor(pool, kWidth, [&](size_t a) {
      exec::ParallelFor(pool, kWidth, [&](size_t b) {
        exec::ParallelFor(pool, kWidth, [&](size_t c) {
          (*visits)[(a * kWidth + b) * kWidth + c].fetch_add(1);
        });
      });
    });
    done->set_value();
  });
  if (finished.wait_for(kDeadlockTimeout) != std::future_status::ready) {
    // Deadlocked: fail instead of hanging. The pool is never destroyed,
    // so nothing waits for the stuck threads.
    runner.detach();
    FAIL() << "nested ParallelFor did not finish in " << kDeadlockTimeout.count()
           << " s";
  }
  runner.join();
  for (size_t i = 0; i < visits->size(); ++i) {
    EXPECT_EQ((*visits)[i].load(), 1) << "index " << i;
  }
}

/// Parks every worker of a pool until Release(), so that a loop's caller
/// has to run all of its shards alone.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(exec::ThreadPool* pool)
      : released_(release_.get_future().share()) {
    for (size_t w = 0; w < pool->size(); ++w) {
      pool->Submit([this] {
        parked_.fetch_add(1);
        released_.wait();
      });
    }
    while (parked_.load() < static_cast<int>(pool->size())) {
      std::this_thread::yield();
    }
  }

  void Release() { release_.set_value(); }

 private:
  std::promise<void> release_;
  std::shared_future<void> released_;
  std::atomic<int> parked_{0};
};

TEST(SharedPoolTest, LateHelpersTouchNoFreedState) {
  // Declared before the pool, so the pool, whose destructor runs every
  // queued task, is destroyed first.
  std::unique_ptr<ParkedWorkers> parked;
  exec::ThreadPool pool(2);
  parked = std::make_unique<ParkedWorkers>(&pool);

  // The loop's body and what it writes to live on the heap and are freed
  // as soon as the call returns: a helper entering the body later would
  // use freed memory (ASan) or race with the frees (TSan).
  constexpr size_t kShards = 8;
  auto ran_on = std::make_unique<std::vector<std::thread::id>>(kShards);
  auto body = std::make_unique<std::function<void(size_t)>>(
      [ran = ran_on.get()](size_t i) { (*ran)[i] = std::this_thread::get_id(); });
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread caller([&pool, &body, done] {
    exec::ParallelFor(&pool, kShards, *body);
    done->set_value();
  });
  const bool alone =
      finished.wait_for(kDeadlockTimeout) == std::future_status::ready;
  if (!alone) parked->Release();  // a caller that waits for the workers
  const std::thread::id caller_id = caller.get_id();
  caller.join();
  ASSERT_TRUE(alone) << "the caller waited for the parked workers";
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ((*ran_on)[i], caller_id) << "shard " << i;
  }
  body.reset();
  ran_on.reset();
  // Now the helpers run: each finds no index left.
  parked->Release();
}

#if PSC_OBS_ENABLED

TEST(ShardsCancelledTest, CallerRunShardsCountSkippedShards) {
  // The workers are parked, so the caller runs every shard itself, in
  // index order: shard 3 cancels, and the six after it are skipped.
  std::unique_ptr<ParkedWorkers> parked;
  exec::ThreadPool pool(2);
  parked = std::make_unique<ParkedWorkers>(&pool);
  const limits::CancelToken cancel;
  const uint64_t before =
      obs::GlobalMetrics().CounterValue("exec.shards_cancelled");
  size_t ran = 0;
  exec::ParallelFor(
      &pool, 10,
      [&](size_t i) {
        ++ran;
        if (i == 3) cancel.Cancel();
      },
      &cancel);
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(obs::GlobalMetrics().CounterValue("exec.shards_cancelled") -
                before,
            6u);
  parked->Release();
}

#endif  // PSC_OBS_ENABLED

}  // namespace
}  // namespace psc
