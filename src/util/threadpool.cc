// Copyright 2026 The QPSeeker Authors

#include "util/threadpool.h"

#include <algorithm>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace util {

namespace {

struct PoolMetrics {
  metrics::Counter* tasks;
  metrics::Histogram* queue_ms;

  static const PoolMetrics& Get() {
    static const PoolMetrics m = [] {
      auto& reg = metrics::Registry::Global();
      return PoolMetrics{reg.GetCounter("qps.pool.tasks"),
                         reg.GetHistogram("qps.pool.queue_ms")};
    }();
    return m;
  }
};

/// `fn` as a queued task: it records its queue wait, then runs under the
/// pool.task span.
std::function<void()> Queued(std::function<void()> fn) {
  return [fn = std::move(fn), queued = Timer()] {
    PoolMetrics::Get().queue_ms->Record(queued.ElapsedMillis());
    QPS_TRACE_SPAN("pool.task");
    PoolMetrics::Get().tasks->Increment();
    fn();
  };
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  QPS_CHECK(num_threads >= 1) << "a ThreadPool needs at least one worker";
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Schedule(std::function<void()> fn) {
  (void)TrySchedule(std::move(fn), SIZE_MAX);
}

bool ThreadPool::TrySchedule(std::function<void()> fn, size_t max_queued) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= max_queued) return false;
    queue_.push_back(Queued(std::move(fn)));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::ScheduleAfter(double delay_ms, std::function<void()> fn) {
  const SteadyTime due =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(std::max(0.0, delay_ms)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    delayed_.emplace(due, std::move(fn));
  }
  // Wake an idle worker so it re-arms its wait for the new earliest entry.
  cv_.notify_one();
}

void ThreadPool::PromoteDueLocked(SteadyTime now) {
  auto end = delayed_.upper_bound(now);
  int promoted = 0;
  for (auto it = delayed_.begin(); it != end; ++it, ++promoted) {
    queue_.push_back(Queued(std::move(it->second)));
  }
  delayed_.erase(delayed_.begin(), end);
  // More than the promoting worker can take at once: wake idle peers.
  if (promoted > 1) cv_.notify_all();
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // At shutdown every delayed entry is due: none is ever dropped.
        PromoteDueLocked(shutdown_ ? SteadyTime::max()
                                   : std::chrono::steady_clock::now());
        if (!queue_.empty()) break;
        if (shutdown_) return;  // shutdown with everything drained
        if (delayed_.empty()) {
          cv_.wait(lock);
        } else {
          // A copy: the entry may be promoted by a peer while this waits.
          const SteadyTime due = delayed_.begin()->first;
          cv_.wait_until(lock, due);
        }
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace util
}  // namespace qps
