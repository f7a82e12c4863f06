// Copyright 2026 The QPSeeker Authors

#include "util/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace qps {
namespace metrics {

double Histogram::BucketUpperBound(int i) {
  // Bucket 0: [0, 1 µs); bucket i: [2^(i-1) µs, 2^i µs). Bounds in ms.
  return 0.001 * std::pow(2.0, i);
}

void Histogram::Record(double value_ms) {
  if (std::isnan(value_ms)) return;
  int bucket = kNumBuckets;  // overflow
  for (int i = 0; i < kNumBuckets; ++i) {
    if (value_ms < BucketUpperBound(i)) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_bits_, value_ms);
}

void Histogram::AddTo(HistogramSnapshot* out) const {
  if (out->buckets.empty()) out->buckets.assign(kNumBuckets + 1, 0);
  for (int i = 0; i <= kNumBuckets; ++i) {
    out->buckets[static_cast<size_t>(i)] += bucket_count(i);
  }
  out->count += count();
  out->sum += sum();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count <= 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(count);
  int64_t seen = 0;
  for (int i = 0; i < static_cast<int>(buckets.size()); ++i) {
    const int64_t in_bucket = buckets[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : Histogram::BucketUpperBound(i - 1);
      if (i >= Histogram::kNumBuckets) return lo;  // overflow: lower bound
      const double hi = Histogram::BucketUpperBound(i);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * frac;
    }
    seen += in_bucket;
  }
  return Histogram::BucketUpperBound(Histogram::kNumBuckets - 1);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hist->AddTo(&hs);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

std::string RenderText(const Snapshot& snapshot) {
  std::string out;
  char buf[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(buf, sizeof(buf), "%-44s %lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += buf;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(buf, sizeof(buf), "%-44s %.6g\n", name.c_str(), value);
    out += buf;
  }
  for (const auto& h : snapshot.histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-44s count=%lld mean=%.3fms p50=%.3fms p90=%.3fms p99=%.3fms\n",
                  h.name.c_str(), static_cast<long long>(h.count), h.mean(),
                  h.Percentile(50), h.Percentile(90), h.Percentile(99));
    out += buf;
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

std::string RenderJson(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(h.name) + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + JsonNumber(h.sum) +
           ",\"mean\":" + JsonNumber(h.mean()) +
           ",\"p50\":" + JsonNumber(h.Percentile(50)) +
           ",\"p90\":" + JsonNumber(h.Percentile(90)) +
           ",\"p99\":" + JsonNumber(h.Percentile(99));
    // Raw bucket counts plus their finite upper bounds (the final bucket
    // is the overflow), so scrapers and BENCH_*.json consumers re-derive
    // percentiles exactly instead of trusting the summary above.
    out += ",\"le\":[";
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (i > 0) out += ",";
      out += JsonNumber(Histogram::BucketUpperBound(i));
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace metrics
}  // namespace qps
