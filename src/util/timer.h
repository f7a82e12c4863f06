// Copyright 2026 The QPSeeker Authors
//
// Wall-clock stopwatch used for planning budgets and latency accounting.
// Reads through util/clock.h, so tests that inject a ManualClock control
// timers, deadlines, and the circuit breaker from one place.

#ifndef QPS_UTIL_TIMER_H_
#define QPS_UTIL_TIMER_H_

#include "util/clock.h"

namespace qps {

/// Monotonic stopwatch. Starts on construction.
class Timer {
 public:
  explicit Timer(const Clock* clock = Clock::Default())
      : clock_(clock), start_(clock_->NowNanos()) {}

  void Reset() { start_ = clock_->NowNanos(); }

  double ElapsedSeconds() const {
    return static_cast<double>(clock_->NowNanos() - start_) * 1e-9;
  }
  double ElapsedMillis() const {
    return static_cast<double>(clock_->NowNanos() - start_) * 1e-6;
  }

 private:
  const Clock* clock_;
  int64_t start_;
};

}  // namespace qps

#endif  // QPS_UTIL_TIMER_H_
