// Copyright 2026 The QPSeeker Authors
//
// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms. The hot paths (Increment / Set / Record) are single
// relaxed atomic operations on pre-resolved pointers — safe to leave on
// per-rollout and per-operator code paths (BM_CounterIncrement in
// bench_micro shows ~1 ns). Registration takes a mutex once; callers cache
// the returned pointer, which stays valid for the process lifetime:
//
//   static metrics::Counter* const rollouts =
//       metrics::Registry::Global().GetCounter("qps.mcts.rollouts");
//   rollouts->Increment();
//
// Naming convention: `qps.<subsystem>.<name>` (DESIGN.md §8). An event an
// object owns (a request, a cache hit) is counted through an
// obs::OwnedCounter, which feeds this registry and the owner's own stats in
// one call. TakeSnapshot() copies every metric under the registration
// mutex; RenderText/RenderJson format a snapshot for the qpsql \metrics
// meta-command and the bench harnesses' EmitMetricsSnapshot
// (QPS_METRICS_JSON_DIR).

#ifndef QPS_UTIL_METRICS_H_
#define QPS_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qps {
namespace metrics {

/// Monotonically increasing integer (events, rows, fallbacks).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins double (epoch loss, learning rate, breaker state).
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Encode(double v);
  static double Decode(uint64_t bits);
  std::atomic<uint64_t> bits_{0};
};

/// Fixed exponential buckets tuned for latencies in milliseconds:
/// [0, 1 µs), then ×2 per bucket up to ~2 minutes, plus an overflow bucket.
/// Record() touches one bucket counter plus sum/count — all relaxed
/// atomics, no lock, no allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 28;  ///< finite buckets + 1 overflow

  void Record(double value_ms);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  /// Upper bound of finite bucket `i` in ms (i in [0, kNumBuckets)).
  static double BucketUpperBound(int i);
  int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets + 1] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};  ///< double, CAS-accumulated
};

/// Point-in-time copy of one histogram, with percentile estimation by
/// linear interpolation inside the owning bucket.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  std::vector<int64_t> buckets;  ///< kNumBuckets + 1 entries

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  double Percentile(double p) const;  ///< p in [0, 100]
};

struct Snapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

/// The global name -> metric table. Thread-safe. Metrics are never removed;
/// pointers returned by Get* stay valid for the process lifetime.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  Snapshot TakeSnapshot() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Human-readable snapshot (the qpsql \metrics output).
std::string RenderText(const Snapshot& snapshot);

/// Compact JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
///  "sum":..,"mean":..,"p50":..,"p90":..,"p99":..}}}
std::string RenderJson(const Snapshot& snapshot);

}  // namespace metrics
}  // namespace qps

#endif  // QPS_UTIL_METRICS_H_
