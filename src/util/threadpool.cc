// Copyright 2026 The QPSeeker Authors

#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

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

/// Runs `fn` as one pool task: the pool.task span and the pool metrics.
void RunTask(const std::function<void()>& fn) {
  QPS_TRACE_SPAN("pool.task");
  PoolMetrics::Get().tasks->Increment();
  fn();
}

/// `fn` as a queued task that records its queue wait first.
std::function<void()> Queued(std::function<void()> fn) {
  return [fn = std::move(fn), queued = Timer()] {
    PoolMetrics::Get().queue_ms->Record(queued.ElapsedMillis());
    RunTask(fn);
  };
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads > 0 ? num_threads : 0));
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
  if (workers_.empty()) {
    // No workers: run inline so scheduled work is never silently dropped.
    RunTask(fn);
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= max_queued) return false;
    queue_.push_back(Queued(std::move(fn)));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::ScheduleAfter(double delay_ms, std::function<void()> fn) {
  if (workers_.empty()) {
    RunTask(fn);
    return;
  }
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

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Dynamic chunking: small chunks balance ragged bodies, and the atomic
  // cursor guarantees each index is claimed exactly once.
  const int64_t participants = static_cast<int64_t>(workers_.size()) + 1;
  const int64_t chunk = std::max<int64_t>(1, n / (4 * participants));
  auto cursor = std::make_shared<std::atomic<int64_t>>(0);
  auto pending = std::make_shared<std::atomic<int64_t>>(0);
  auto done_mu = std::make_shared<std::mutex>();
  auto done_cv = std::make_shared<std::condition_variable>();

  auto drain = [cursor, chunk, n, &body] {
    for (;;) {
      const int64_t begin = cursor->fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const int64_t end = std::min(n, begin + chunk);
      for (int64_t i = begin; i < end; ++i) body(i);
    }
  };

  // One helper task per worker; each drains chunks until the loop is done.
  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(workers_.size()), (n + chunk - 1) / chunk);
  pending->store(helpers, std::memory_order_relaxed);
  for (int64_t t = 0; t < helpers; ++t) {
    Schedule([drain, pending, done_mu, done_cv] {
      drain();
      if (pending->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(*done_mu);
        done_cv->notify_all();
      }
    });
  }
  drain();  // the caller participates instead of blocking idle
  std::unique_lock<std::mutex> lock(*done_mu);
  done_cv->wait(lock, [&] { return pending->load(std::memory_order_acquire) == 0; });
}

}  // namespace util
}  // namespace qps
