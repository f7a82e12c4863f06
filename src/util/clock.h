// Copyright 2026 The QPSeeker Authors
//
// One injectable time source for the whole system. Timers, planning
// deadlines, the circuit breaker, trace spans, and log prefixes all read
// the same monotonic clock, so a test that substitutes ManualClock moves
// every deadline at once and a trace's timestamps line up with log lines.

#ifndef QPS_UTIL_CLOCK_H_
#define QPS_UTIL_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace qps {

/// Monotonic time source. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since an arbitrary (per-clock) epoch. Monotonic.
  virtual int64_t NowNanos() const = 0;

  double NowMillis() const { return static_cast<double>(NowNanos()) * 1e-6; }
  double NowSeconds() const { return static_cast<double>(NowNanos()) * 1e-9; }

  /// The process-wide steady_clock-backed instance. Never null.
  static const Clock* Default();
};

/// std::chrono::steady_clock. Epoch = first use in the process.
class SteadyClock final : public Clock {
 public:
  int64_t NowNanos() const override;
};

/// Manually advanced clock for deterministic tests (breaker cool-downs,
/// deadline handling, trace timestamps). Starts at zero.
class ManualClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    return nanos_.load(std::memory_order_relaxed);
  }

  void AdvanceNanos(int64_t delta) {
    nanos_.fetch_add(delta, std::memory_order_relaxed);
  }
  void AdvanceMillis(double ms) {
    AdvanceNanos(static_cast<int64_t>(ms * 1e6));
  }
  void SetMillis(double ms) {
    nanos_.store(static_cast<int64_t>(ms * 1e6), std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> nanos_{0};
};

}  // namespace qps

#endif  // QPS_UTIL_CLOCK_H_
