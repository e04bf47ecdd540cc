#include "psc/exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "psc/exec/memo_cache.h"
#include "psc/exec/parallel.h"
#include "psc/obs/log.h"
#include "psc/obs/metrics.h"

namespace psc {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> executed{0};
  {
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&executed] { executed.fetch_add(1); });
    }
  }  // the destructor waits for every submitted task
  EXPECT_EQ(executed.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadRequestClampsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> executed{0};
  pool.Submit([&executed] { executed.fetch_add(1); });
  while (executed.load() < 1) std::this_thread::yield();
}

TEST(ThreadPoolTest, NestedSubmissionFromWorkersRuns) {
  std::atomic<int> executed{0};
  exec::ThreadPool pool(2);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&pool, &executed] {
      pool.Submit([&executed] { executed.fetch_add(1); });
    });
  }
  while (executed.load() < 16) std::this_thread::yield();
  EXPECT_EQ(executed.load(), 16);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  constexpr size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  exec::ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<size_t> order;
  exec::ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelReduceTest, MergesInShardOrder) {
  // String concatenation is order-sensitive: any merge reordering would
  // scramble the digits.
  const auto shard = [](size_t i) { return std::to_string(i) + ","; };
  const auto merge = [](std::string& acc, std::string part) {
    acc += part;
  };
  const std::string sequential = exec::ParallelReduce<std::string>(
      nullptr, 20, std::string(), shard, merge);
  exec::ThreadPool pool(4);
  for (int round = 0; round < 8; ++round) {
    EXPECT_EQ(exec::ParallelReduce<std::string>(&pool, 20, std::string(),
                                                shard, merge),
              sequential);
  }
}

TEST(ParallelReduceTest, MatchesSequentialSum) {
  const auto shard = [](size_t i) {
    return static_cast<uint64_t>(i) * static_cast<uint64_t>(i);
  };
  const auto merge = [](uint64_t& acc, uint64_t part) { acc += part; };
  const uint64_t expected = exec::ParallelReduce<uint64_t>(
      nullptr, 1000, uint64_t{0}, shard, merge);
  exec::ThreadPool pool(3);
  EXPECT_EQ(exec::ParallelReduce<uint64_t>(&pool, 1000, uint64_t{0}, shard,
                                           merge),
            expected);
}

TEST(ShardsCancelledTest, SkippedShardsNeverReachMerge) {
  // Every part the merge sees must come from a shard that ran, whether the
  // token was cancelled before the fan-out or by the first shard.
  struct Part {
    size_t shards = 0;
    bool ran = false;
  };
  exec::ThreadPool pool(2);
  for (const bool cancel_first : {true, false}) {
    const limits::CancelToken cancel;
    if (cancel_first) cancel.Cancel();
    std::atomic<size_t> ran{0};
    const Part reduced = exec::ParallelReduce<Part>(
        &pool, 64, Part{0, true},
        [&](size_t i) {
          ran.fetch_add(1);
          if (i == 0) cancel.Cancel();
          return Part{1, true};
        },
        [](Part& acc, Part part) {
          EXPECT_TRUE(part.ran) << "a skipped shard reached the merge";
          acc.shards += part.shards;
        },
        &cancel);
    EXPECT_EQ(reduced.shards, ran.load());
    if (cancel_first) {
      EXPECT_EQ(ran.load(), 0u);
    }
  }
}

#if PSC_OBS_ENABLED

uint64_t ShardsCancelled() {
  return obs::GlobalMetrics().CounterValue("exec.shards_cancelled");
}

TEST(ShardsCancelledTest, InlineParallelForCountsSkippedShards) {
  const limits::CancelToken cancel;
  const uint64_t before = ShardsCancelled();
  size_t ran = 0;
  exec::ParallelFor(
      nullptr, 10,
      [&](size_t i) {
        ++ran;
        if (i == 3) cancel.Cancel();
      },
      &cancel);
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(ShardsCancelled() - before, 6u);
}

TEST(ShardsCancelledTest, InlineParallelReduceCountsSkippedShards) {
  const limits::CancelToken cancel;
  const uint64_t before = ShardsCancelled();
  const size_t ran = exec::ParallelReduce<size_t>(
      nullptr, 10, size_t{0},
      [&](size_t i) {
        if (i == 3) cancel.Cancel();
        return size_t{1};
      },
      [](size_t& acc, size_t part) { acc += part; }, &cancel);
  EXPECT_EQ(ran, 4u);
  EXPECT_EQ(ShardsCancelled() - before, 6u);
}

TEST(ShardsCancelledTest, PooledHelpersCountSkippedShards) {
  // Cancelled before the fan-out, so every shard is skipped whichever
  // worker dequeues it.
  exec::ThreadPool pool(2);
  const limits::CancelToken cancel;
  cancel.Cancel();
  const uint64_t before = ShardsCancelled();
  std::atomic<size_t> ran{0};
  exec::ParallelFor(
      &pool, 8, [&](size_t) { ran.fetch_add(1); }, &cancel);
  const size_t reduced = exec::ParallelReduce<size_t>(
      &pool, 8, size_t{0}, [](size_t) { return size_t{1}; },
      [](size_t& acc, size_t part) { acc += part; }, &cancel);
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(reduced, 0u);
  EXPECT_EQ(ShardsCancelled() - before, 16u);
}

#endif  // PSC_OBS_ENABLED

TEST(ResolveThreadCountTest, ExplicitRequestWinsOverEnvironment) {
  setenv("PSC_THREADS", "7", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(3), 3u);
  unsetenv("PSC_THREADS");
}

TEST(ResolveThreadCountTest, AutoReadsEnvironment) {
  setenv("PSC_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), 5u);
  unsetenv("PSC_THREADS");
}

TEST(ResolveThreadCountTest, InvalidEnvironmentFallsBackToHardware) {
  setenv("PSC_THREADS", "banana", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  setenv("PSC_THREADS", "0", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  unsetenv("PSC_THREADS");
  EXPECT_GE(exec::HardwareThreads(), 1u);
}

TEST(ResolveThreadCountTest, EdgeValuesFallBackToHardware) {
  // Boundary cases around the [1, 1024] accepted range.
  setenv("PSC_THREADS", "1024", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), 1024u);
  setenv("PSC_THREADS", "1025", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  setenv("PSC_THREADS", "-1", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  setenv("PSC_THREADS", "18446744073709551617", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  unsetenv("PSC_THREADS");
}

TEST(ResolveThreadCountTest, JunkEnvironmentWarnsOncePerValue) {
  std::vector<std::string> warnings;
  obs::SetWarningSink(
      [&warnings](const std::string& message) { warnings.push_back(message); });

  setenv("PSC_THREADS", "bogus-threads", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("bogus-threads"), std::string::npos);
  EXPECT_NE(warnings[0].find("PSC_THREADS"), std::string::npos);

  // The same junk value warns only once per process...
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  EXPECT_EQ(warnings.size(), 1u);

  // ...but a different junk value gets its own warning.
  setenv("PSC_THREADS", "-12", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), exec::HardwareThreads());
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[1].find("-12"), std::string::npos);

  // A valid setting stays silent.
  setenv("PSC_THREADS", "2", /*overwrite=*/1);
  EXPECT_EQ(exec::ResolveThreadCount(0), 2u);
  EXPECT_EQ(warnings.size(), 2u);

  unsetenv("PSC_THREADS");
  obs::SetWarningSink(nullptr);
}

TEST(ShardedMemoCacheTest, LookupAfterInsert) {
  exec::ShardedMemoCache<int> cache;
  EXPECT_FALSE(cache.Lookup("a").has_value());
  cache.Insert("a", 1);
  cache.Insert("b", 2);
  ASSERT_TRUE(cache.Lookup("a").has_value());
  EXPECT_EQ(*cache.Lookup("a"), 1);
  EXPECT_EQ(*cache.Lookup("b"), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedMemoCacheTest, FirstWriterWins) {
  exec::ShardedMemoCache<int> cache(4);
  cache.Insert("key", 10);
  cache.Insert("key", 99);  // no-op: entries are immutable once inserted
  EXPECT_EQ(*cache.Lookup("key"), 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedMemoCacheTest, ClearEmptiesEveryShard) {
  exec::ShardedMemoCache<int> cache(4);
  for (int i = 0; i < 100; ++i) cache.Insert(std::to_string(i), i);
  EXPECT_EQ(cache.size(), 100u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("42").has_value());
}

TEST(ShardedMemoCacheTest, ConcurrentMixedUseIsSafe) {
  exec::ShardedMemoCache<int> cache;
  exec::ThreadPool pool(4);
  exec::ParallelFor(&pool, 256, [&](size_t i) {
    const std::string key = std::to_string(i % 32);
    cache.Insert(key, static_cast<int>(i % 32));
    const auto hit = cache.Lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, static_cast<int>(i % 32));
  });
  EXPECT_EQ(cache.size(), 32u);
}

}  // namespace
}  // namespace psc
