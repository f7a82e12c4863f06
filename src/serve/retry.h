// Copyright 2026 The QPSeeker Authors
//
// Deadline-budgeted retry policy for the serving path. Transient failures
// — shed load (kResourceExhausted), quarantined-but-recovering tenants
// (kUnavailable), injected transients (kIOError) — are retried with
// exponential backoff; terminal failures (bad queries, blown deadlines,
// cancellations, backend defects) are surfaced immediately. Every attempt
// is budgeted against the request's remaining deadline_ms: a retry that
// cannot fit its backoff plus a minimum attempt inside the budget is not
// taken, so no retry starts once the budget is spent.
//
// Determinism: the jitter is a pure function of (request seed, attempt),
// drawn from a splitmix64 finalizer rather than a shared RNG, so a fixed
// seed yields a byte-identical retry schedule — and, since planning is a
// function of (query, seed) alone, a byte-identical plan — no matter which
// thread retries or what else the service is doing.

#ifndef QPS_SERVE_RETRY_H_
#define QPS_SERVE_RETRY_H_

#include <algorithm>
#include <cstdint>

#include "util/hash.h"
#include "util/status.h"

namespace qps {
namespace serve {

struct RetryPolicy {
  /// Retries after the first attempt (0 disables retrying entirely).
  int max_retries = 0;

  /// Backoff before retry k (1-based): base * multiplier^(k-1), jittered
  /// by +-jitter_frac, capped at max_backoff_ms.
  double backoff_base_ms = 2.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 200.0;
  double jitter_frac = 0.25;

  bool enabled() const { return max_retries > 0; }

  /// The jittered backoff before retry `attempt` (1-based), deterministic
  /// in (seed, attempt).
  double BackoffMs(int attempt, uint64_t seed) const {
    double backoff = backoff_base_ms;
    for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
    backoff = std::min(backoff, max_backoff_ms);
    if (jitter_frac > 0.0) {
      // splitmix64 finalizer over (seed, attempt): deterministic,
      // stateless, well-mixed even for adjacent seeds.
      const uint64_t z = util::SplitMix64Finalize(
          seed + util::kSplitMixGamma * static_cast<uint64_t>(attempt + 1));
      const double unit =
          static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // [0,1)
      backoff *= 1.0 + jitter_frac * (2.0 * unit - 1.0);
    }
    return backoff;
  }

  /// True when retry `attempt` (1-based) is classification-eligible for
  /// `failure`: the status is transient and the attempt cap has room. The
  /// caller still checks the deadline budget against BackoffMs — see
  /// FitsBudget.
  bool ShouldRetry(const Status& failure, int attempt) const {
    if (!enabled() || attempt > max_retries) return false;
    return !failure.ok() && failure.IsRetryable();
  }

  /// True when `backoff_ms` plus a minimum useful attempt (~1ms) still fit
  /// the deadline budget. `deadline_ms` <= 0 means no deadline (always
  /// fits).
  static bool FitsBudget(double backoff_ms, double elapsed_ms,
                         double deadline_ms) {
    if (deadline_ms <= 0.0) return true;
    return elapsed_ms + backoff_ms + 1.0 < deadline_ms;
  }
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_RETRY_H_
