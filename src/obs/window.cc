// Copyright 2026 The QPSeeker Authors

#include "obs/window.h"

#include <algorithm>
#include <cstring>

namespace qps {
namespace obs {

namespace {

std::atomic<bool> g_windowed_enabled{true};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void AtomicAddDouble(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(old_bits,
                                      DoubleBits(BitsDouble(old_bits) + delta),
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

int64_t EpochFromNanos(int64_t now_ns, double slot_width_ms) {
  // Slot width in ns; widths below 1 ms are clamped so the division stays
  // well-defined even for degenerate options.
  const int64_t width_ns =
      std::max<int64_t>(1'000'000, static_cast<int64_t>(slot_width_ms * 1e6));
  return now_ns / width_ns;
}

int NormalizedSlots(int slots) { return std::max(1, slots); }

}  // namespace

void SetWindowedEnabled(bool enabled) {
  g_windowed_enabled.store(enabled, std::memory_order_relaxed);
}

bool WindowedEnabled() {
  return g_windowed_enabled.load(std::memory_order_relaxed);
}

// ---- WindowedCounter ----------------------------------------------------

WindowedCounter::WindowedCounter(WindowOptions opts)
    : opts_(opts), slots_(static_cast<size_t>(NormalizedSlots(opts.slots))) {
  opts_.slots = NormalizedSlots(opts_.slots);
  created_ns_ = clock().NowNanos();
}

const Clock& WindowedCounter::clock() const {
  return opts_.clock != nullptr ? *opts_.clock : *Clock::Default();
}

int64_t WindowedCounter::EpochNow() const {
  return EpochFromNanos(clock().NowNanos(), opts_.slot_width_ms);
}

void WindowedCounter::Increment(int64_t delta) {
  if (!WindowedEnabled()) return;
  const int64_t epoch = EpochNow();
  Slot& slot = slots_[static_cast<size_t>(epoch % opts_.slots)];
  int64_t seen = slot.epoch.load(std::memory_order_relaxed);
  if (seen != epoch) {
    // Claim the rotation; the winner zeroes the slot. A concurrent add that
    // slips in before the zeroing is lost — bounded, documented skew.
    if (slot.epoch.compare_exchange_strong(seen, epoch,
                                           std::memory_order_relaxed)) {
      slot.value.store(0, std::memory_order_relaxed);
    }
  }
  slot.value.fetch_add(delta, std::memory_order_relaxed);
}

int64_t WindowedCounter::Total() const {
  const int64_t epoch = EpochNow();
  const int64_t oldest = epoch - opts_.slots + 1;
  int64_t total = 0;
  for (const Slot& slot : slots_) {
    const int64_t slot_epoch = slot.epoch.load(std::memory_order_relaxed);
    if (slot_epoch >= oldest && slot_epoch <= epoch) {
      total += slot.value.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double WindowedCounter::RatePerSec() const {
  const double lifetime_ms =
      static_cast<double>(clock().NowNanos() - created_ns_) * 1e-6;
  const double covered_ms = std::min(window_span_ms(), lifetime_ms);
  if (covered_ms <= 0.0) return 0.0;
  return static_cast<double>(Total()) / (covered_ms * 1e-3);
}

// ---- WindowedHistogram --------------------------------------------------

WindowedHistogram::WindowedHistogram(WindowOptions opts)
    : opts_(opts), slots_(static_cast<size_t>(NormalizedSlots(opts.slots))) {
  opts_.slots = NormalizedSlots(opts_.slots);
  created_ns_ = clock().NowNanos();
}

const Clock& WindowedHistogram::clock() const {
  return opts_.clock != nullptr ? *opts_.clock : *Clock::Default();
}

int64_t WindowedHistogram::EpochNow() const {
  return EpochFromNanos(clock().NowNanos(), opts_.slot_width_ms);
}

void WindowedHistogram::Record(double value_ms) {
  if (!WindowedEnabled()) return;
  if (value_ms != value_ms) return;  // NaN
  const int64_t epoch = EpochNow();
  Slot& slot = slots_[static_cast<size_t>(epoch % opts_.slots)];
  int64_t seen = slot.epoch.load(std::memory_order_relaxed);
  if (seen != epoch) {
    if (slot.epoch.compare_exchange_strong(seen, epoch,
                                           std::memory_order_relaxed)) {
      for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum_bits.store(0, std::memory_order_relaxed);
    }
  }
  int bucket = metrics::Histogram::kNumBuckets;
  for (int i = 0; i < metrics::Histogram::kNumBuckets; ++i) {
    if (value_ms < metrics::Histogram::BucketUpperBound(i)) {
      bucket = i;
      break;
    }
  }
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&slot.sum_bits, value_ms);
}

metrics::HistogramSnapshot WindowedHistogram::SnapshotWindow() const {
  const int64_t epoch = EpochNow();
  const int64_t oldest = epoch - opts_.slots + 1;
  metrics::HistogramSnapshot out;
  out.buckets.assign(metrics::Histogram::kNumBuckets + 1, 0);
  for (const Slot& slot : slots_) {
    const int64_t slot_epoch = slot.epoch.load(std::memory_order_relaxed);
    if (slot_epoch < oldest || slot_epoch > epoch) continue;
    for (int i = 0; i <= metrics::Histogram::kNumBuckets; ++i) {
      out.buckets[static_cast<size_t>(i)] +=
          slot.buckets[i].load(std::memory_order_relaxed);
    }
    out.count += slot.count.load(std::memory_order_relaxed);
    out.sum += BitsDouble(slot.sum_bits.load(std::memory_order_relaxed));
  }
  return out;
}

double WindowedHistogram::CoveredSeconds() const {
  const double lifetime_ms =
      static_cast<double>(clock().NowNanos() - created_ns_) * 1e-6;
  return std::min(window_span_ms(), lifetime_ms) * 1e-3;
}

double WindowedHistogram::RatePerSec() const {
  const double covered_s = CoveredSeconds();
  if (covered_s <= 0.0) return 0.0;
  return static_cast<double>(SnapshotWindow().count) / covered_s;
}

// ---- WindowRegistry -----------------------------------------------------

WindowRegistry& WindowRegistry::Global() {
  static WindowRegistry* registry = new WindowRegistry();
  return *registry;
}

WindowedCounter* WindowRegistry::GetCounter(const std::string& name,
                                            WindowOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<WindowedCounter>(opts);
  return slot.get();
}

WindowedHistogram* WindowRegistry::GetHistogram(const std::string& name,
                                                WindowOptions opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<WindowedHistogram>(opts);
  return slot.get();
}

WindowSnapshot WindowRegistry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  WindowSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    WindowSnapshot::CounterView view;
    view.name = name;
    view.total = counter->Total();
    view.rate_per_sec = counter->RatePerSec();
    snap.counters.push_back(std::move(view));
  }
  for (const auto& [name, hist] : histograms_) {
    WindowSnapshot::HistogramView view;
    view.name = name;
    view.rate_per_sec = hist->RatePerSec();
    view.hist = hist->SnapshotWindow();
    view.hist.name = name;
    snap.histograms.push_back(std::move(view));
  }
  return snap;
}

// ---- OwnedCounter / OwnedHistogram --------------------------------------

namespace {

std::string Labelled(const std::string& label_family,
                     const std::string& label) {
  return label.empty() ? std::string() : label_family + "." + label;
}

}  // namespace

OwnedCounter::OwnedCounter(const std::string& family, Feed feed,
                           const std::string& label_family,
                           const std::string& label)
    : cumulative_(metrics::Registry::Global().GetCounter(family)),
      window_(feed == Feed::kWindowed
                  ? WindowRegistry::Global().GetCounter(family)
                  : nullptr),
      labelled_(label.empty() ? nullptr
                              : WindowRegistry::Global().GetCounter(
                                    Labelled(label_family, label))) {}

void OwnedCounter::Increment(int64_t delta) const {
  value_.fetch_add(delta, std::memory_order_release);
  cumulative_->Increment(delta);
  if (window_ != nullptr) window_->Increment(delta);
  if (labelled_ != nullptr) labelled_->Increment(delta);
}

OwnedHistogram::OwnedHistogram(const std::string& family, Feed feed,
                               const std::string& label_family,
                               const std::string& label)
    : cumulative_(metrics::Registry::Global().GetHistogram(family)),
      window_(feed == Feed::kWindowed
                  ? WindowRegistry::Global().GetHistogram(family)
                  : nullptr),
      labelled_(label.empty() ? nullptr
                              : WindowRegistry::Global().GetHistogram(
                                    Labelled(label_family, label))) {}

void OwnedHistogram::Record(double value) const {
  if (value != value) return;  // NaN, as every series drops it
  AtomicAddDouble(&sum_bits_, value);
  uint64_t max_bits = max_bits_.load(std::memory_order_relaxed);
  while (value > BitsDouble(max_bits) &&
         !max_bits_.compare_exchange_weak(max_bits, DoubleBits(value),
                                          std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_release);
  cumulative_->Record(value);
  if (window_ != nullptr) window_->Record(value);
  if (labelled_ != nullptr) labelled_->Record(value);
}

double OwnedHistogram::sum() const {
  return BitsDouble(sum_bits_.load(std::memory_order_relaxed));
}

double OwnedHistogram::max() const {
  return BitsDouble(max_bits_.load(std::memory_order_relaxed));
}

}  // namespace obs
}  // namespace qps
