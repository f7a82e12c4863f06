// Copyright 2026 The QPSeeker Authors
//
// Helpers of the end-to-end benchmark that do not depend on the planner:
// percentile summaries, the seeded open-loop arrival schedule, the Zipf
// tenant picker, the geometric-mean runtime ratio, and the benchmark's own
// span log. Kept apart from driver.cc so tests/bench_util_test.cc can pin
// their behaviour without building a model.

#ifndef QPS_E2EBENCH_BENCH_UTIL_H_
#define QPS_E2EBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

/// splitmix64 finalizer: a well-mixed 64-bit hash of `x`.
uint64_t Mix64(uint64_t x);

/// Deterministic per-item seed: item `index` of the stream seeded `seed`.
/// Independent of the order in which items are drawn.
uint64_t ItemSeed(uint64_t seed, uint64_t index);

/// Small seeded generator (splitmix64 stream), identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1), 53 random bits.
  double Uniform();

 private:
  uint64_t state_;
};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `pct` percent of the sample at or below it. 0 for an empty
/// sample.
double NearestRank(const std::vector<double>& sorted, double pct);

/// Median and tail of a sample. The tail is the highest percentile of the
/// ladder {99.9, 99.5, 99, 98, 95, 90, 75, 50} that still has at least ten
/// samples above its rank, so a tail figure never rests on fewer than ten
/// observations. `tail_pct` is 0 (and `tail` the maximum) when even the
/// median has fewer than ten samples beyond it.
struct TailSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
TailSummary Summarize(std::vector<double> values);

/// Median of `values` (nearest rank); 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile `pct` of `values`, or NaN when fewer than ten
/// samples lie above its rank. A metric named after a fixed percentile (a
/// p99) reports this, so it always means that percentile, and a run too
/// short to support it fails instead of reporting a figure that rests on a
/// handful of samples.
double SupportedPercentile(std::vector<double> values, double pct);

/// Per-request medians over repeated passes: `values[p][i]` is request i's
/// value in pass p, NaN where that attempt gave none. Element i of the
/// result is the median of request i's values, NaN when it has none. A
/// request missing from a shorter pass counts as NaN there.
std::vector<double> MediansAcrossPasses(const std::vector<std::vector<double>>& values);

/// Seeded open-loop schedule: due times in ms from the start of the run for
/// a Poisson process of `rate_per_s` arrivals per second, `count` arrivals.
/// The same (seed, rate, count) always gives the same schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    size_t count);

/// Open-loop timing of one request. Latency runs from when the request was
/// due, not from when the generator got round to sending it, so a stalled
/// generator or service is charged to every request it delayed; `lag_ms`
/// is how late the generator sent it (never negative).
struct OpenLoopTiming {
  double latency_ms = 0.0;
  double lag_ms = 0.0;
};
OpenLoopTiming TimeFromDue(double due_ms, double sent_ms, double done_ms);

/// Zipfian rank picker: P(rank r) is proportional to 1 / (r + 1)^skew over
/// ranks [0, n). Rank 0 is the most popular.
class ZipfPicker {
 public:
  ZipfPicker(int n, double skew);
  /// Maps a uniform draw in [0, 1) to a rank.
  int Pick(double uniform) const;
  /// Probability of rank `r`.
  double Probability(int r) const;
  int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

/// Geometric mean of num[i] / den[i]. Returns nullopt, with a reason in
/// `*error`, when the lists differ in length, are empty, or hold a runtime
/// that is zero, negative or not finite: such a ratio has no meaning and
/// must fail the run rather than skew the mean.
std::optional<double> GeoMeanRatio(const std::vector<double>& num,
                                   const std::vector<double>& den,
                                   std::string* error);

/// The benchmark's own spans: recorded around calls into the program, kept
/// in memory, written out when the run ends. Thread-safe.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t id = -1;
    int64_t parent = -1;   ///< -1 for a root span
    int64_t request = -1;  ///< request id shared by every span of a request
    int tid = 0;           ///< recording thread, dense from 0
    double start_ms = 0.0; ///< from the log's creation
    double end_ms = 0.0;
  };

  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Opens a span and returns its id.
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  void End(int64_t id);
  /// Records a span whose interval was measured elsewhere (ms on this
  /// log's clock, see NowMs).
  int64_t Add(const char* name, int64_t parent, int64_t request,
              double start_ms, double end_ms);
  double NowMs() const;

  std::vector<Span> spans() const;

  /// Chrome-trace JSON ("X" events; args carry id, parent and request).
  bool WriteChromeJson(const std::string& path) const;

 private:
  int ThreadIndexLocked();

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span; inert when `log` is null, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent, int64_t request)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Self time per span name, in ms: each span's duration minus the part of
/// its interval covered by the union of its children's intervals.
std::map<std::string, double> SelfTimesMs(const std::vector<SpanLog::Span>& spans);

}  // namespace e2e

#endif  // QPS_E2EBENCH_BENCH_UTIL_H_
