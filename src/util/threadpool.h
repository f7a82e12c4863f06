// Copyright 2026 The QPSeeker Authors
//
// Fixed-size worker pool for the inference hot path. Planning-time work
// (leaf-parallel MCTS evaluation, batched encoder feature assembly) is
// CPU-bound and latency-sensitive, so the pool is deliberately simple: N
// long-lived workers, one locked FIFO queue, no work stealing. Delayed
// tasks (ScheduleAfter) wait in a due-time-ordered side table that the
// idle workers watch with wait_until; a due entry joins the back of the
// FIFO, so no thread ever sleeps on behalf of a task. ParallelFor
// statically describes the loop and dynamically chunks it across the
// workers *plus the calling thread*, so a pool is never slower than the
// serial loop by more than the dispatch cost (~a few µs per call).
//
// Observability: every task runs under a "pool.task" trace span on the
// worker's own span stack, and the pool exports qps.pool.tasks /
// qps.pool.queue_ms through the global metrics registry, so \metrics and
// Chrome traces show scheduling behavior without extra flags.
//
// Determinism contract: ParallelFor(i) calls are unordered across threads,
// but each index runs exactly once; callers that write result[i] from
// body(i) get bit-identical output regardless of thread count or
// scheduling. All planner-side users follow that pattern.

#ifndef QPS_UTIL_THREADPOOL_H_
#define QPS_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
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
  /// Spawns `num_threads` workers. 0 is allowed: every ParallelFor runs
  /// inline on the caller (useful to disable parallelism via one knob).
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
  /// With no workers the task runs inline (never sheds), matching
  /// Schedule's never-drop semantics.
  bool TrySchedule(std::function<void()> fn, size_t max_queued);

  /// Enqueues `fn` once `delay_ms` has elapsed. Until then the entry holds
  /// no worker and does not count in queue_depth(); idle workers wait
  /// until the earliest due entry. Destruction runs every pending entry at
  /// once, never drops one. With no workers `fn` runs inline immediately:
  /// a pool without threads has no one to wait for the due time.
  void ScheduleAfter(double delay_ms, std::function<void()> fn);

  /// Tasks enqueued but not yet claimed by a worker (admission gauge).
  size_t queue_depth() const;

  /// Runs body(i) for every i in [0, n) exactly once, sharded dynamically
  /// across the workers and the calling thread; returns when all indices
  /// have completed. Bodies must not throw and must write disjoint state.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

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
