#include "psc/sync/mutex.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "psc/sync/rank.h"

namespace psc::sync {
namespace {

// Tests that observe the held-lock stack must opt in: bookkeeping is off
// by default in Release builds (see RankCheckingEnabled()).
class HeldStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = RankCheckingEnabled();
    SetRankCheckingEnabled(true);
  }
  void TearDown() override { SetRankCheckingEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST(MutexTest, NameAndRankAccessors) {
  Mutex mu("test.mutex", 42);
  EXPECT_STREQ(mu.name(), "test.mutex");
  EXPECT_EQ(mu.rank(), 42);
  SharedMutex smu("test.shared", 7);
  EXPECT_STREQ(smu.name(), "test.shared");
  EXPECT_EQ(smu.rank(), 7);
}

TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu("test.excl", 10);
  int counter = 0;  // guarded by mu (local, so annotated informally)
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST_F(HeldStackTest, TracksLockAndUnlock) {
  Mutex mu("test.held", 10);
  EXPECT_FALSE(internal::IsHeld(&mu));
  {
    MutexLock lock(&mu);
    EXPECT_TRUE(internal::IsHeld(&mu));
    mu.AssertHeld();  // must not abort while held
  }
  EXPECT_FALSE(internal::IsHeld(&mu));
}

TEST(MutexTest, SharedMutexAdmitsConcurrentReaders) {
  SharedMutex mu("test.rw", 10);
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> release{false};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ReaderLock lock(&mu);
      const int inside = ++readers_inside;
      int seen = max_readers.load();
      while (inside > seen && !max_readers.compare_exchange_weak(seen, inside)) {
      }
      // Hold until every reader has entered (or a generous timeout), to
      // prove the lock admits them simultaneously.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!release.load() && std::chrono::steady_clock::now() < deadline) {
        if (readers_inside.load() == kReaders) release.store(true);
        std::this_thread::yield();
      }
      --readers_inside;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(max_readers.load(), kReaders);
}

TEST_F(HeldStackTest, WriterAndReaderLocksRegister) {
  SharedMutex mu("test.rw2", 10);
  int value = 0;
  {
    WriterLock lock(&mu);
    EXPECT_TRUE(internal::IsHeld(&mu));
    value = 1;
  }
  EXPECT_FALSE(internal::IsHeld(&mu));
  {
    ReaderLock lock(&mu);
    EXPECT_TRUE(internal::IsHeld(&mu));
    EXPECT_EQ(value, 1);
  }
  EXPECT_FALSE(internal::IsHeld(&mu));
}

TEST_F(HeldStackTest, CondVarWaitWakesOnNotifyAndKeepsEntry) {
  Mutex mu("test.cv", 10);
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    mu.Lock();
    while (!ready) cv.Wait(mu);
    EXPECT_TRUE(ready);
    // Wait() must reacquire the lock and keep the held-stack accurate.
    EXPECT_TRUE(internal::IsHeld(&mu));
    mu.Unlock();
  }
  producer.join();
}

TEST_F(HeldStackTest, CondVarWaitForTimesOutAndKeepsEntry) {
  Mutex mu("test.cv_timeout", 10);
  CondVar cv;
  mu.Lock();
  const bool signalled = cv.WaitFor(mu, std::chrono::milliseconds(10));
  EXPECT_FALSE(signalled);
  EXPECT_TRUE(internal::IsHeld(&mu));
  mu.Unlock();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu("test.cv_all", 10);
  CondVar cv;
  bool go = false;
  std::atomic<int> woken{0};
  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      mu.Lock();
      while (!go) cv.Wait(mu);
      mu.Unlock();
      ++woken;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
    cv.NotifyAll();
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(woken.load(), kWaiters);
}

TEST(RankCheckingTest, ToggleRoundTrips) {
  const bool before = RankCheckingEnabled();
  SetRankCheckingEnabled(true);
  EXPECT_TRUE(RankCheckingEnabled());
  SetRankCheckingEnabled(false);
  EXPECT_FALSE(RankCheckingEnabled());
  SetRankCheckingEnabled(before);
}

TEST(RankTest, HierarchyConstantsAreStrictlyOrderedWhereNested) {
  // The orderings the codebase actually nests (DESIGN.md §14). If a rank
  // edit breaks one of these the process would abort at runtime in debug
  // builds; fail fast here instead.
  EXPECT_LT(kRankServeQueue, kRankObsMetrics);        // dispatch emits metrics
  EXPECT_LT(kRankServeCollections, kRankDeltaData);   // StatsJson snapshots
  EXPECT_LT(kRankDeltaData, kRankDeltaCache);         // apply → invalidate
  EXPECT_LT(kRankDeltaCache, kRankEvalIndexCache);    // rebuild touches eval
  EXPECT_LT(kRankDeltaCache, kRankMemoShard);         // rebuild touches memo
  EXPECT_LT(kRankDeltaData, kRankExecQueue);          // a full check submits
  EXPECT_LT(kRankDeltaData, kRankExecRegistry);       // a full check fans out
  EXPECT_LT(kRankExecRegistry, kRankObsMetrics);      // pool creation counters
  EXPECT_LT(kRankObsScopeTrip, kRankObsScopeRegistry);
  EXPECT_LT(kRankObsLogSeen, kRankObsLogSink);
}

}  // namespace
}  // namespace psc::sync
