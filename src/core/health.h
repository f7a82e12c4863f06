// Copyright 2026 The QPSeeker Authors
//
// The project's one circuit breaker: per-key rolling error/timeout rates
// driving a closed -> open -> half-open state machine. Two layers key it:
//   - core::GuardedPlanner gates its neural rung on it, one key per
//     (tenant, model) ladder ("neural", or "neural_<tenant>"); an open
//     breaker routes complex queries straight to the DP planner.
//   - each serve::PlanService tenant core (sharded_service.h) keys it per
//     tenant and quarantines a tenant whose requests keep failing, so
//     doomed work fast-fails (kUnavailable, reason "quarantined") instead
//     of queueing on the shard pool that colocated tenants are paying for.
//
// State machine per key:
//
//           error rate >= open_error_rate
//           over >= min_samples in window
//   CLOSED ────────────────────────────────▶ OPEN   (quarantined: Admit()
//      ▲                                      │       fast-fails kReject)
//      │  probe_recoveries successful         │ open_ms cool-down elapsed
//      │  probes in a row                     ▼
//      └──────────────────────────────── HALF-OPEN  (Admit() lets at most
//                 ▲      │                            probe_concurrency
//                 │      │ any probe failure          live requests through
//                 └──────┘ re-opens (re-quarantine)   as kProbe)
//
// Time comes from an injectable util/clock Clock, so the whole machine is
// ManualClock-testable. All decisions are made under one mutex per
// monitor; the hot paths call Admit()/Record() once per request attempt or
// neural rung, which is noise against planning cost.
//
// Metrics (closed families, linted by scripts/check_metric_names.sh):
//   qps.health.state.<key>        cumulative gauge: 0 closed, 1 open,
//                                 2 half-open
//   qps.health.quarantines.<key>  windowed counter: closed/half-open -> open
//   qps.health.probes.<key>       windowed counter: half-open admissions
//   qps.health.recoveries.<key>   windowed counter: half-open -> closed
// Each transition is one owned-counter call (obs/window.h) that moves the
// KeyStats field, the key's windowed series, and a cumulative family total
// (qps.health.quarantines, qps.health.probes, qps.health.recoveries).

#ifndef QPS_CORE_HEALTH_H_
#define QPS_CORE_HEALTH_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/status.h"

namespace qps {
namespace core {

struct HealthOptions {
  /// Rolling window over which error rates are computed.
  double window_ms = 3000.0;

  /// Minimum attempts inside the window before the breaker may trip (a
  /// single early failure is not a pattern).
  int min_samples = 8;

  /// Error-rate trip threshold over the window (errors / attempts).
  double open_error_rate = 0.5;

  /// Quarantine duration before the breaker half-opens and lets probe
  /// traffic through.
  double open_ms = 1500.0;

  /// Live probe requests admitted concurrently while half-open.
  int probe_concurrency = 2;

  /// Consecutive successful probes required to close (recover).
  int probe_recoveries = 3;

  /// Count kDeadlineExceeded attempts as failures (timeouts are a health
  /// signal: a stalling model is as quarantinable as a throwing one).
  bool timeouts_are_failures = true;

  /// Injectable time source; nullptr = Clock::Default().
  const Clock* clock = nullptr;
};

enum class HealthState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* HealthStateName(HealthState state);

/// Admission decision for one request attempt against one key.
enum class AdmitDecision {
  kAdmit,  ///< closed: normal traffic
  kProbe,  ///< half-open: admitted as a recovery probe
  kReject, ///< open (or half-open at probe capacity): fast-fail
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = {});
  ~HealthMonitor();  // out-of-line: keys_ holds the incomplete Key type

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Gate one request attempt for `key`. kReject means the caller should
  /// fast-fail kUnavailable (reason "quarantined") without queueing work.
  /// A kProbe admission MUST be matched by exactly one Record() with
  /// probe=true, or the probe slot leaks until the next quarantine.
  AdmitDecision Admit(const std::string& key);

  /// Records the outcome of one admitted attempt. `probe` echoes the
  /// Admit() decision. Failures while half-open re-open the breaker
  /// immediately (re-quarantine); probe_recoveries consecutive probe
  /// successes close it.
  void Record(const std::string& key, const Status& outcome, bool probe);

  /// Convenience for shadow keys (e.g. per-shard rates published alongside
  /// the per-tenant breaker): records without any breaker transitions.
  void RecordObserved(const std::string& key, const Status& outcome);

  /// Releases a kProbe admission whose outcome says nothing about health —
  /// the request was shed or cancelled before planning. Decrements the
  /// in-flight probe count without recording a sample or transition.
  void AbandonProbe(const std::string& key);

  HealthState state(const std::string& key) const;

  struct KeyStats {
    HealthState state = HealthState::kClosed;
    int64_t window_attempts = 0;  ///< attempts inside the rolling window
    int64_t window_failures = 0;
    int64_t quarantines = 0;      ///< lifetime -> open transitions
    int64_t probes = 0;           ///< lifetime probe admissions
    int64_t recoveries = 0;       ///< lifetime half-open -> closed
  };
  KeyStats stats(const std::string& key) const;
  std::vector<std::pair<std::string, KeyStats>> AllStats() const;

  const HealthOptions& options() const { return options_; }

 private:
  struct Key;

  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : *Clock::Default();
  }

  Key& GetKeyLocked(const std::string& key);
  void TrimLocked(Key& k, double now_ms) const;
  void OpenLocked(const std::string& name, Key& k, double now_ms);

  HealthOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, Key> keys_;
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_HEALTH_H_
