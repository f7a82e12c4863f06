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

TEST(ThreadPoolTest, ZeroWorkersIsRejected) {
  // Every task runs on a worker: a pool without one would never run them.
  EXPECT_DEATH(ThreadPool(0), "at least one worker");
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

TEST(ThreadPoolTest, DestructionJoinsIdlePool) {
  auto pool = std::make_unique<ThreadPool>(3);
  EXPECT_EQ(pool->num_threads(), 3);
  pool.reset();  // must not hang or crash with an empty queue
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

}  // namespace
}  // namespace util
}  // namespace qps
