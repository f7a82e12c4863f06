// Copyright 2026 The QPSeeker Authors
//
// Fixed-size worker pool for the serving shards (serve::ShardedPlanService
// runs one per shard). A planning request runs on one worker from start to
// finish, so the pool only ever parallelizes across requests. It is
// deliberately simple: N long-lived workers, one locked FIFO queue, no work
// stealing. Delayed tasks (ScheduleAfter, a retry's backoff) wait in a
// due-time-ordered side table that the idle workers watch with wait_until;
// a due entry joins the back of the FIFO, so no thread ever sleeps on
// behalf of a task.
//
// Observability: every task runs under a "pool.task" trace span on the
// worker's own span stack, and the pool exports qps.pool.tasks /
// qps.pool.queue_ms through the global metrics registry, so \metrics and
// Chrome traces show scheduling behavior without extra flags.

#ifndef QPS_UTIL_THREADPOOL_H_
#define QPS_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace qps {
namespace util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; at least one (checked).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one fire-and-forget task.
  void Schedule(std::function<void()> fn);

  /// Bounded-queue admission control: enqueues `fn` only when fewer than
  /// `max_queued` tasks are waiting (tasks already running on workers do
  /// not count), otherwise returns false without enqueuing. This is how
  /// the plan service sheds load instead of building an unbounded backlog.
  bool TrySchedule(std::function<void()> fn, size_t max_queued);

  /// Enqueues `fn` once `delay_ms` has elapsed. Until then the entry holds
  /// no worker and does not count in queue_depth(); idle workers wait
  /// until the earliest due entry. Destruction runs every pending entry at
  /// once, never drops one.
  void ScheduleAfter(double delay_ms, std::function<void()> fn);

  /// Tasks enqueued but not yet claimed by a worker (admission gauge).
  size_t queue_depth() const;

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  void WorkerLoop();
  /// Moves every delayed entry due at `now` to the back of queue_.
  void PromoteDueLocked(SteadyTime now);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  /// ScheduleAfter entries by due time; equal times keep insertion order.
  std::multimap<SteadyTime, std::function<void()>> delayed_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace qps

#endif  // QPS_UTIL_THREADPOOL_H_
