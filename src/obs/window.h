// Copyright 2026 The QPSeeker Authors
//
// Windowed metric aggregation for serving-time observability. The base
// registry (util/metrics.h) is cumulative-since-process-start: it answers
// "how many requests ever ran" but not "what was p99 latency over the last
// 30 seconds", which is the view a serving dashboard needs. WindowedCounter
// and WindowedHistogram close that gap as two views of one time-bucketed
// ring, internal::WindowRing: N slots of W milliseconds each (default
// 10 x 3000 ms = a 30 s sliding window), each slot an epoch plus one of
// the registry's own metrics, a metrics::Counter or a metrics::Histogram.
// The bucket grid, bucket search and CAS sum are therefore the registry's,
// and a rotation is the slot metric's Reset().
//
// Hot path: one relaxed atomic load of the global enable flag, one clock
// read, and the slot metric's relaxed atomic adds — no lock, no
// allocation. Slot rotation is claimed with a CAS on the slot's epoch; the
// winner resets the slot. A concurrent write that lands between the claim
// and the reset can lose its sample — windowed values are approximate by
// design at slot boundaries (the cumulative registry stays exact). Readers
// merge the live slots into a point-in-time view; a slot whose epoch fell
// out of the window is skipped, so stale data ages out without a
// background thread.
//
// When windowed instrumentation is globally disabled
// (SetWindowedEnabled(false)), Increment/Record return after a single
// relaxed load — cheaper than a cumulative Counter::Increment, proven by
// BM_WindowedCounterDisabled in bench_micro (<= 2x counter cost is the
// acceptance bound; the measured path is strictly less work).
//
// Serving code never holds windowed series itself: OwnedCounter and
// OwnedHistogram (end of this file) feed an owner's stats value, the
// cumulative registry and the windowed series in one call per event.

#ifndef QPS_OBS_WINDOW_H_
#define QPS_OBS_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/metrics.h"

namespace qps {
namespace obs {

/// Enables/disables every WindowedCounter/WindowedHistogram hot path at
/// once. On by default; hot loops that cannot afford the clock read flip it
/// off. The disabled path is one relaxed load + branch.
void SetWindowedEnabled(bool enabled);
bool WindowedEnabled();

struct WindowOptions {
  /// Ring slots. The window covers `slots * slot_width_ms` milliseconds.
  int slots = 10;
  double slot_width_ms = 3000.0;
  /// Injectable time source; nullptr = Clock::Default(). Tests substitute
  /// a ManualClock to drive rotation deterministically.
  const Clock* clock = nullptr;
};

namespace internal {

/// The one ring behind every windowed series: `opts.slots` slots, each an
/// epoch plus a `Metric` (metrics::Counter or metrics::Histogram).
/// Thread-safe; instantiated for those two metrics in window.cc.
template <typename Metric>
class WindowRing {
 public:
  explicit WindowRing(WindowOptions opts);

  /// The slot metric of the current epoch. A slot still holding an older
  /// epoch is claimed with one CAS and the winner Reset()s it first.
  Metric& Current();

  /// Calls `fn(const Metric&)` on every slot whose epoch is inside the
  /// window, the current partial slot included.
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    const int64_t epoch = EpochNow();
    const int64_t oldest = epoch - opts_.slots + 1;
    for (const Slot& slot : slots_) {
      const int64_t slot_epoch = slot.epoch.load(std::memory_order_relaxed);
      if (slot_epoch >= oldest && slot_epoch <= epoch) fn(slot.metric);
    }
  }

  /// `events` divided by the covered span: the window span once the ring
  /// is warm, the elapsed lifetime before that.
  double RatePerSec(int64_t events) const;

  double window_span_ms() const {
    return static_cast<double>(opts_.slots) * opts_.slot_width_ms;
  }

 private:
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    Metric metric;
  };

  const Clock& clock() const;
  int64_t EpochNow() const;

  WindowOptions opts_;
  std::vector<Slot> slots_;
  int64_t created_ns_ = 0;
};

}  // namespace internal

/// Sliding-window event counter: Total() and RatePerSec() over the last
/// `slots * slot_width_ms` milliseconds. Thread-safe.
class WindowedCounter {
 public:
  explicit WindowedCounter(WindowOptions opts = {}) : ring_(opts) {}

  void Increment(int64_t delta = 1);

  /// Sum over the live window (including the current partial slot).
  int64_t Total() const;

  /// Total() per second of the covered span (see WindowRing::RatePerSec).
  double RatePerSec() const { return ring_.RatePerSec(Total()); }

  double window_span_ms() const { return ring_.window_span_ms(); }

 private:
  internal::WindowRing<metrics::Counter> ring_;
};

/// Sliding-window latency histogram: a ring of metrics::Histogram slots,
/// yielding rolling p50/p90/p99 via SnapshotWindow(). Thread-safe; same
/// rotation semantics as WindowedCounter.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowOptions opts = {}) : ring_(opts) {}

  void Record(double value_ms);

  /// Merges the live slots into one snapshot (name left empty); percentile
  /// queries go through metrics::HistogramSnapshot::Percentile.
  metrics::HistogramSnapshot SnapshotWindow() const;

  double Percentile(double p) const { return SnapshotWindow().Percentile(p); }
  int64_t Count() const;

  /// Events per second over the covered span (see WindowedCounter).
  double RatePerSec() const { return ring_.RatePerSec(Count()); }

  double window_span_ms() const { return ring_.window_span_ms(); }

 private:
  internal::WindowRing<metrics::Histogram> ring_;
};

/// Point-in-time copy of every windowed metric, for the export surface.
struct WindowSnapshot {
  struct CounterView {
    std::string name;
    int64_t total = 0;
    double rate_per_sec = 0.0;
  };
  struct HistogramView {
    std::string name;
    double rate_per_sec = 0.0;
    metrics::HistogramSnapshot hist;  ///< window-merged buckets
  };
  std::vector<CounterView> counters;
  std::vector<HistogramView> histograms;
};

/// Global name -> windowed metric table, mirroring metrics::Registry.
/// Pointers stay valid for the process lifetime; callers cache them in
/// function-local statics exactly like cumulative metrics. Every registry
/// series uses the default WindowOptions; a caller that needs another
/// window (a test's ManualClock) builds its own WindowedCounter.
class WindowRegistry {
 public:
  static WindowRegistry& Global();

  WindowedCounter* GetCounter(const std::string& name);
  WindowedHistogram* GetHistogram(const std::string& name);

  WindowSnapshot TakeSnapshot() const;

 private:
  WindowRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<WindowedCounter>> counters_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> histograms_;
};

/// Which process-wide series an owned metric feeds besides its owner's
/// value.
enum class Feed {
  kCumulative,  ///< the family's metrics::Registry series
  kWindowed,    ///< that series plus the WindowRegistry series of the name
};

/// The ledger primitive (DESIGN.md §8): a counter held by the object that
/// owns the event — a service, a planner, a cache. One Increment() moves
/// the owner's lifetime value and every series the owner feeds: the
/// family's cumulative counter, its windowed twin under Feed::kWindowed,
/// and the labelled windowed series `<label_family>.<label>` when `label`
/// is non-empty (qps.tenant.requests.<id>). Series are resolved once, at
/// construction; the hot path is lock-free atomic adds, and
/// SetWindowedEnabled(false) skips only the ring adds.
///
/// Registry series are process-wide and sum every owner of the family;
/// value() is this owner's alone. The owner's add is a release and value()
/// an acquire, so a snapshot that reads effect counters before cause
/// counters never shows an effect without its cause. Increment() is const
/// and thread-safe, so a const owner (a Planner, planner_api.h) counts
/// through it from any number of threads.
class OwnedCounter {
 public:
  explicit OwnedCounter(const std::string& family,
                        Feed feed = Feed::kCumulative,
                        const std::string& label_family = "",
                        const std::string& label = "");

  void Increment(int64_t delta = 1) const;

  int64_t value() const { return value_.load(std::memory_order_acquire); }

 private:
  mutable std::atomic<int64_t> value_{0};
  metrics::Counter* const cumulative_;
  WindowedCounter* const window_;    ///< null under Feed::kCumulative
  WindowedCounter* const labelled_;  ///< null without a label
};

/// OwnedCounter's histogram twin: one Record() feeds the owner's count,
/// sum and max plus the family's cumulative, windowed and labelled
/// histograms. count() acquires what Record() released last, so a reader
/// that loads count() first sees at least that many values in sum().
class OwnedHistogram {
 public:
  explicit OwnedHistogram(const std::string& family,
                          Feed feed = Feed::kCumulative,
                          const std::string& label_family = "",
                          const std::string& label = "");

  void Record(double value) const;

  int64_t count() const { return count_.load(std::memory_order_acquire); }
  double sum() const;
  /// Largest recorded value, exact; 0 before the first record.
  double max() const;

 private:
  mutable std::atomic<int64_t> count_{0};
  mutable std::atomic<uint64_t> sum_bits_{0};
  mutable std::atomic<uint64_t> max_bits_{0};
  metrics::Histogram* const cumulative_;
  WindowedHistogram* const window_;
  WindowedHistogram* const labelled_;
};

}  // namespace obs
}  // namespace qps

#endif  // QPS_OBS_WINDOW_H_
