// Copyright 2026 The QPSeeker Authors

#include "obs/window.h"

#include <algorithm>
#include <bit>

namespace qps {
namespace obs {

namespace {

std::atomic<bool> g_windowed_enabled{true};

}  // namespace

void SetWindowedEnabled(bool enabled) {
  g_windowed_enabled.store(enabled, std::memory_order_relaxed);
}

bool WindowedEnabled() {
  return g_windowed_enabled.load(std::memory_order_relaxed);
}

// ---- WindowRing ---------------------------------------------------------

namespace internal {

template <typename Metric>
WindowRing<Metric>::WindowRing(WindowOptions opts)
    : opts_(opts), slots_(static_cast<size_t>(std::max(1, opts.slots))) {
  opts_.slots = std::max(1, opts_.slots);
  created_ns_ = clock().NowNanos();
}

template <typename Metric>
const Clock& WindowRing<Metric>::clock() const {
  return opts_.clock != nullptr ? *opts_.clock : *Clock::Default();
}

template <typename Metric>
int64_t WindowRing<Metric>::EpochNow() const {
  // Slot width in ns; widths below 1 ms are clamped so the division stays
  // well-defined even for degenerate options.
  const int64_t width_ns = std::max<int64_t>(
      1'000'000, static_cast<int64_t>(opts_.slot_width_ms * 1e6));
  return clock().NowNanos() / width_ns;
}

template <typename Metric>
Metric& WindowRing<Metric>::Current() {
  const int64_t epoch = EpochNow();
  Slot& slot = slots_[static_cast<size_t>(epoch % opts_.slots)];
  int64_t seen = slot.epoch.load(std::memory_order_relaxed);
  // Claim the rotation; the winner resets the slot. A concurrent write
  // that slips in before the reset is lost — bounded, documented skew.
  if (seen != epoch && slot.epoch.compare_exchange_strong(
                           seen, epoch, std::memory_order_relaxed)) {
    slot.metric.Reset();
  }
  return slot.metric;
}

template <typename Metric>
double WindowRing<Metric>::RatePerSec(int64_t events) const {
  const double lifetime_ms =
      static_cast<double>(clock().NowNanos() - created_ns_) * 1e-6;
  const double covered_s = std::min(window_span_ms(), lifetime_ms) * 1e-3;
  if (covered_s <= 0.0) return 0.0;
  return static_cast<double>(events) / covered_s;
}

template class WindowRing<metrics::Counter>;
template class WindowRing<metrics::Histogram>;

}  // namespace internal

// ---- WindowedCounter / WindowedHistogram ---------------------------------

void WindowedCounter::Increment(int64_t delta) {
  if (!WindowedEnabled()) return;
  ring_.Current().Increment(delta);
}

int64_t WindowedCounter::Total() const {
  int64_t total = 0;
  ring_.ForEachLive([&](const metrics::Counter& c) { total += c.value(); });
  return total;
}

void WindowedHistogram::Record(double value_ms) {
  if (!WindowedEnabled()) return;
  ring_.Current().Record(value_ms);
}

metrics::HistogramSnapshot WindowedHistogram::SnapshotWindow() const {
  metrics::HistogramSnapshot out;
  out.buckets.assign(metrics::Histogram::kNumBuckets + 1, 0);
  ring_.ForEachLive([&](const metrics::Histogram& h) { h.AddTo(&out); });
  return out;
}

int64_t WindowedHistogram::Count() const {
  int64_t count = 0;
  ring_.ForEachLive([&](const metrics::Histogram& h) { count += h.count(); });
  return count;
}

// ---- WindowRegistry -----------------------------------------------------

WindowRegistry& WindowRegistry::Global() {
  static WindowRegistry* registry = new WindowRegistry();
  return *registry;
}

WindowedCounter* WindowRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<WindowedCounter>();
  return slot.get();
}

WindowedHistogram* WindowRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<WindowedHistogram>();
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
  metrics::AtomicAddDouble(&sum_bits_, value);
  uint64_t max_bits = max_bits_.load(std::memory_order_relaxed);
  while (value > std::bit_cast<double>(max_bits) &&
         !max_bits_.compare_exchange_weak(max_bits,
                                          std::bit_cast<uint64_t>(value),
                                          std::memory_order_relaxed)) {
  }
  count_.fetch_add(1, std::memory_order_release);
  cumulative_->Record(value);
  if (window_ != nullptr) window_->Record(value);
  if (labelled_ != nullptr) labelled_->Record(value);
}

double OwnedHistogram::sum() const {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double OwnedHistogram::max() const {
  return std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
}

}  // namespace obs
}  // namespace qps
