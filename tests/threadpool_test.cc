// Copyright 2026 The QPSeeker Authors

#include "util/threadpool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace qps {
namespace util {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  pool.ParallelFor(kN, [&](int64_t i) { counts[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForExactOnceUnderRepeatedContention) {
  ThreadPool pool(4);
  // Many small loops back to back stress the chunk cursor and the
  // completion wait; every index must still run exactly once per call.
  for (int round = 0; round < 50; ++round) {
    constexpr int64_t kN = 257;  // not a multiple of any chunk size
    std::vector<std::atomic<int>> counts(kN);
    for (auto& c : counts) c.store(0);
    pool.ParallelFor(kN, [&](int64_t i) { counts[i].fetch_add(1); });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForWritesDisjointSlotsDeterministically) {
  ThreadPool pool(4);
  constexpr int64_t kN = 4096;
  std::vector<int64_t> out(kN, -1);
  pool.ParallelFor(kN, [&](int64_t i) { out[i] = i * i; });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  constexpr int64_t kN = 100;
  std::vector<int> counts(kN, 0);  // plain ints: inline mode is single-threaded
  pool.ParallelFor(kN, [&](int64_t i) { counts[i] += 1; });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i], 1);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleton) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  pool.ParallelFor(1, [&](int64_t i) {
    EXPECT_EQ(i, 0);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ScheduleRunsTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Schedule([&done] { done.fetch_add(1); });
    }
    // Destructor joins after draining the queue.
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, TryScheduleShedsWhenQueueFull) {
  ThreadPool pool(1);
  // Park the single worker so queued tasks pile up deterministically.
  std::mutex gate;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  pool.Schedule([&] {
    std::unique_lock<std::mutex> lk(gate);
    cv.wait(lk, [&] { return release; });
    ran.fetch_add(1);
  });
  // Wait until the blocker has been claimed (queue drained to 0).
  while (pool.queue_depth() != 0) std::this_thread::yield();

  // Admission bound of 2: two tasks enter the queue, the third is shed.
  EXPECT_TRUE(pool.TrySchedule([&] { ran.fetch_add(1); }, 2));
  EXPECT_TRUE(pool.TrySchedule([&] { ran.fetch_add(1); }, 2));
  EXPECT_EQ(pool.queue_depth(), 2u);
  EXPECT_FALSE(pool.TrySchedule([&] { ran.fetch_add(1); }, 2));

  {
    std::lock_guard<std::mutex> lk(gate);
    release = true;
  }
  cv.notify_all();
  while (ran.load() != 3) std::this_thread::yield();
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, TryScheduleInlineWithoutWorkersNeverSheds) {
  ThreadPool pool(0);
  int ran = 0;
  // max_queued of 0 would shed any queued task, but inline execution never
  // queues, so the call must run the task and report success.
  EXPECT_TRUE(pool.TrySchedule([&] { ran += 1; }, 0));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, DestructionJoinsIdlePool) {
  auto pool = std::make_unique<ThreadPool>(3);
  EXPECT_EQ(pool->num_threads(), 3);
  pool.reset();  // must not hang or crash with an empty queue
}

TEST(ThreadPoolTest, NestedUseFromScheduledTask) {
  // A scheduled task may itself issue a ParallelFor on the same pool via
  // caller participation; the calling worker must make progress even if
  // all other workers are busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::atomic<bool> finished{false};
  pool.Schedule([&] {
    pool.ParallelFor(100, [&](int64_t) { total.fetch_add(1); });
    finished.store(true);
  });
  while (!finished.load()) std::this_thread::yield();
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ScheduleAfterHoldsNoWorkerWhileWaiting) {
  // One worker: a delayed entry must leave it free for immediate work, and
  // run only once its delay has passed.
  ThreadPool pool(1);
  const auto start = std::chrono::steady_clock::now();
  std::promise<double> delayed_ms;
  pool.ScheduleAfter(150.0, [&] {
    delayed_ms.set_value(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
  });
  EXPECT_EQ(pool.queue_depth(), 0u);
  std::promise<void> immediate;
  pool.Schedule([&] { immediate.set_value(); });
  auto delayed = delayed_ms.get_future();
  immediate.get_future().get();
  EXPECT_EQ(delayed.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the delayed entry ran before the immediate one";
  EXPECT_GE(delayed.get(), 150.0);
}

TEST(ThreadPoolTest, ScheduleAfterRunsInDueOrder) {
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<int> order;
  std::promise<void> last;
  pool.ScheduleAfter(60.0, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
    last.set_value();
  });
  pool.ScheduleAfter(20.0, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  last.get_future().get();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ThreadPoolTest, DestructionRunsPendingDelayedEntries) {
  std::atomic<int> ran{0};
  const auto start = std::chrono::steady_clock::now();
  {
    ThreadPool pool(2);
    for (int i = 0; i < 3; ++i) {
      pool.ScheduleAfter(60000.0, [&] { ran.fetch_add(1); });
    }
  }
  // Run, not dropped, and not waited out either.
  EXPECT_EQ(ran.load(), 3);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            30.0);
}

TEST(ThreadPoolTest, ScheduleAfterWithoutWorkersRunsInline) {
  ThreadPool pool(0);
  int ran = 0;
  pool.ScheduleAfter(60000.0, [&] { ran += 1; });
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace util
}  // namespace qps
