// Copyright 2026 The QPSeeker Authors

#include "core/health.h"

#include <algorithm>
#include <utility>

#include "obs/window.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace qps {
namespace core {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kClosed:
      return "closed";
    case HealthState::kOpen:
      return "open";
    case HealthState::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

/// Per-key breaker state. Samples are (timestamp_ms, failure) pairs in a
/// deque trimmed to the rolling window; serving rates (tens of thousands
/// per window at most) keep it small, and everything is under the monitor
/// mutex.
struct HealthMonitor::Key {
  explicit Key(const std::string& name)
      : state_gauge(
            metrics::Registry::Global().GetGauge("qps.health.state." + name)),
        quarantines("qps.health.quarantines", obs::Feed::kCumulative,
                    "qps.health.quarantines", name),
        probes("qps.health.probes", obs::Feed::kCumulative,
               "qps.health.probes", name),
        recoveries("qps.health.recoveries", obs::Feed::kCumulative,
                   "qps.health.recoveries", name) {}

  HealthState state = HealthState::kClosed;
  std::deque<std::pair<double, bool>> samples;
  int64_t window_failures = 0;  ///< failures currently inside `samples`
  double opened_at_ms = 0.0;
  int probes_inflight = 0;
  int probe_successes = 0;  ///< consecutive, while half-open

  KeyStats Snapshot() const {
    KeyStats out;
    out.state = state;
    out.window_attempts = static_cast<int64_t>(samples.size());
    out.window_failures = window_failures;
    out.quarantines = quarantines.value();
    out.probes = probes.value();
    out.recoveries = recoveries.value();
    return out;
  }

  // The state gauge is cumulative (dashboards want the current value).
  metrics::Gauge* const state_gauge;
  // Lifetime transitions (KeyStats), each feeding the family total and
  // the key's windowed rate series.
  obs::OwnedCounter quarantines;
  obs::OwnedCounter probes;
  obs::OwnedCounter recoveries;
};

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(std::move(options)) {}

HealthMonitor::~HealthMonitor() = default;

HealthMonitor::Key& HealthMonitor::GetKeyLocked(const std::string& key) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    it = keys_.try_emplace(key, key).first;
    // Every key starts closed, also when an earlier monitor (a swapped-out
    // model's breaker) left this series elsewhere.
    it->second.state_gauge->Set(static_cast<double>(HealthState::kClosed));
  }
  return it->second;
}

bool HealthMonitor::SampleLocked(Key& k, const Status& outcome,
                                 double now_ms) const {
  const double horizon = now_ms - options_.window_ms;
  while (!k.samples.empty() && k.samples.front().first < horizon) {
    if (k.samples.front().second) k.window_failures -= 1;
    k.samples.pop_front();
  }
  const bool failure = !outcome.ok();
  k.samples.emplace_back(now_ms, failure);
  if (failure) k.window_failures += 1;
  return failure;
}

void HealthMonitor::OpenLocked(const std::string& name, Key& k,
                               double now_ms) {
  k.state = HealthState::kOpen;
  k.opened_at_ms = now_ms;
  k.quarantines.Increment();
  k.probes_inflight = 0;
  k.probe_successes = 0;
  // A fresh quarantine judges the next window on its own evidence.
  k.samples.clear();
  k.window_failures = 0;
  k.state_gauge->Set(static_cast<double>(HealthState::kOpen));
  QPS_VLOG(1) << "health: " << name << " quarantined (breaker OPEN)";
}

AdmitDecision HealthMonitor::Admit(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Key& k = GetKeyLocked(key);
  const double now_ms = clock().NowMillis();
  switch (k.state) {
    case HealthState::kClosed:
      return AdmitDecision::kAdmit;
    case HealthState::kOpen:
      if (now_ms - k.opened_at_ms < options_.open_ms) {
        return AdmitDecision::kReject;
      }
      // Cool-down over: half-open, and this request is the first probe.
      k.state = HealthState::kHalfOpen;
      k.probe_successes = 0;
      k.probes_inflight = 0;
      k.state_gauge->Set(static_cast<double>(HealthState::kHalfOpen));
      QPS_VLOG(1) << "health: " << key << " half-open, probing";
      [[fallthrough]];
    case HealthState::kHalfOpen:
      if (k.probes_inflight >= options_.probe_concurrency) {
        return AdmitDecision::kReject;
      }
      k.probes_inflight += 1;
      k.probes.Increment();
      return AdmitDecision::kProbe;
  }
  return AdmitDecision::kAdmit;
}

void HealthMonitor::Record(const std::string& key, const Status& outcome,
                           bool probe) {
  std::lock_guard<std::mutex> lock(mu_);
  Key& k = GetKeyLocked(key);
  const double now_ms = clock().NowMillis();
  const bool failure = SampleLocked(k, outcome, now_ms);

  if (probe && k.state == HealthState::kHalfOpen) {
    k.probes_inflight = std::max(0, k.probes_inflight - 1);
    if (failure) {
      // The tenant is still sick: re-quarantine for a fresh cool-down.
      OpenLocked(key, k, now_ms);
      return;
    }
    k.probe_successes += 1;
    if (k.probe_successes >= options_.probe_recoveries) {
      k.state = HealthState::kClosed;
      k.recoveries.Increment();
      k.samples.clear();
      k.window_failures = 0;
      k.state_gauge->Set(static_cast<double>(HealthState::kClosed));
      QPS_VLOG(1) << "health: " << key << " recovered (breaker closed)";
    }
    return;
  }

  if (k.state == HealthState::kClosed && failure) {
    const int64_t attempts = static_cast<int64_t>(k.samples.size());
    if (attempts >= options_.min_samples &&
        static_cast<double>(k.window_failures) >=
            options_.open_error_rate * static_cast<double>(attempts)) {
      OpenLocked(key, k, now_ms);
    }
  }
}

void HealthMonitor::RecordObserved(const std::string& key,
                                   const Status& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(GetKeyLocked(key), outcome, clock().NowMillis());
}

void HealthMonitor::AbandonProbe(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  Key& k = it->second;
  if (k.state == HealthState::kHalfOpen) {
    k.probes_inflight = std::max(0, k.probes_inflight - 1);
  }
}

HealthState HealthMonitor::state(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  return it == keys_.end() ? HealthState::kClosed : it->second.state;
}

HealthMonitor::KeyStats HealthMonitor::stats(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(key);
  if (it == keys_.end()) return KeyStats{};
  return it->second.Snapshot();
}

std::vector<std::pair<std::string, HealthMonitor::KeyStats>>
HealthMonitor::AllStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, KeyStats>> out;
  out.reserve(keys_.size());
  for (const auto& [name, k] : keys_) out.emplace_back(name, k.Snapshot());
  return out;
}

}  // namespace core
}  // namespace qps
