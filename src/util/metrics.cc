// Copyright 2026 The QPSeeker Authors

#include "util/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace qps {
namespace metrics {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// CAS-accumulates `delta` into a double stored as bits.
void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(old_bits,
                                      DoubleBits(BitsDouble(old_bits) + delta),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";  // keep the JSON valid
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Minimal JSON string escaping (metric names are dotted identifiers, but
/// stay safe for arbitrary input).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

uint64_t Gauge::Encode(double v) { return DoubleBits(v); }
double Gauge::Decode(uint64_t bits) { return BitsDouble(bits); }

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

double Histogram::sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
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
    hs.count = hist->count();
    hs.sum = hist->sum();
    for (int i = 0; i <= Histogram::kNumBuckets; ++i) {
      hs.buckets.push_back(hist->bucket_count(i));
    }
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
    out += "\"" + JsonEscape(name) + "\":" + FormatDouble(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(h.name) + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + FormatDouble(h.sum) +
           ",\"mean\":" + FormatDouble(h.mean()) +
           ",\"p50\":" + FormatDouble(h.Percentile(50)) +
           ",\"p90\":" + FormatDouble(h.Percentile(90)) +
           ",\"p99\":" + FormatDouble(h.Percentile(99));
    // Raw bucket counts plus their finite upper bounds (the final bucket
    // is the overflow), so scrapers and BENCH_*.json consumers re-derive
    // percentiles exactly instead of trusting the summary above.
    out += ",\"le\":[";
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (i > 0) out += ",";
      out += FormatDouble(Histogram::BucketUpperBound(i));
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
