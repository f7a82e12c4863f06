// Copyright 2026 The QPSeeker Authors
//
// Observability layer: windowed counters/histograms (rotation, expiry,
// rates, the disabled fast path, and concurrency exactness — this test
// binary is in the TSan stage of tier1.sh), the owned counter/histogram
// that feed the registries (owner value vs family, disabled windows,
// concurrent exactness), the accuracy/drift tracker
// (quantiles, EWMA baseline, drift injection), the Prometheus exposition
// round-trip, the obs JSON document + snapshot writer, the audit log
// schema, and the qps_top board rendering.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/accuracy.h"
#include "obs/audit.h"
#include "obs/export.h"
#include "obs/json_reader.h"
#include "obs/top.h"
#include "obs/window.h"
#include "util/clock.h"
#include "util/io.h"
#include "util/metrics.h"

namespace qps {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

/// Clock wrapper counting NowNanos calls, to prove the disabled hot path
/// never reads the clock.
class CountingClock final : public Clock {
 public:
  int64_t NowNanos() const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return inner.NowNanos();
  }
  ManualClock inner;
  mutable std::atomic<int64_t> calls{0};
};

// ---- Windowed metrics ---------------------------------------------------

TEST(WindowedCounterTest, AccumulatesWithinOneSlot) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 4;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  WindowedCounter counter(opts);
  counter.Increment();
  counter.Increment(4);
  EXPECT_EQ(counter.Total(), 5);
}

TEST(WindowedCounterTest, OldSlotsAgeOutOfTheWindow) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 3;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  WindowedCounter counter(opts);

  counter.Increment(10);  // slot epoch 0
  clock.AdvanceMillis(1000.0);
  counter.Increment(20);  // epoch 1
  clock.AdvanceMillis(1000.0);
  counter.Increment(30);  // epoch 2
  EXPECT_EQ(counter.Total(), 60);  // all three slots live

  clock.AdvanceMillis(1000.0);  // epoch 3: epoch-0 slot falls out
  EXPECT_EQ(counter.Total(), 50);
  clock.AdvanceMillis(2000.0);  // epoch 5: only epoch >= 3 would survive
  EXPECT_EQ(counter.Total(), 0);
}

TEST(WindowedCounterTest, RotationReclaimsTheRingSlot) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 2;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  WindowedCounter counter(opts);

  counter.Increment(7);  // epoch 0 -> ring slot 0
  clock.AdvanceMillis(2000.0);
  counter.Increment(1);  // epoch 2 -> ring slot 0 again: must zero first
  EXPECT_EQ(counter.Total(), 1);
}

TEST(WindowedCounterTest, RatePerSecUsesLifetimeUntilWarm) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 10;
  opts.slot_width_ms = 1000.0;  // 10 s window
  opts.clock = &clock;
  WindowedCounter counter(opts);

  counter.Increment(100);
  clock.AdvanceMillis(2000.0);
  // 100 events over 2 s of lifetime, not over the 10 s window span.
  EXPECT_NEAR(counter.RatePerSec(), 50.0, 1e-9);

  clock.AdvanceMillis(20000.0);  // past the window: events expired
  EXPECT_NEAR(counter.RatePerSec(), 0.0, 1e-9);
}

TEST(WindowedCounterTest, DisabledPathSkipsTheClockEntirely) {
  CountingClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  WindowedCounter counter(opts);  // constructor reads the clock once
  const int64_t calls_after_ctor = clock.calls.load();

  SetWindowedEnabled(false);
  for (int i = 0; i < 1000; ++i) counter.Increment();
  SetWindowedEnabled(true);

  EXPECT_EQ(clock.calls.load(), calls_after_ctor);
  EXPECT_EQ(counter.Total(), 0);
}

TEST(WindowedCounterTest, ConcurrentIncrementsAtFixedTimeSumExactly) {
  // With a pinned clock no rotation happens, so the relaxed adds must sum
  // exactly — this is the TSan-visible hot path.
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  WindowedCounter counter(opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.Total(), int64_t{kThreads} * kPerThread);
}

TEST(WindowedCounterTest, ConcurrentIncrementsAcrossRotationStayBounded) {
  // Threads increment while another thread advances the clock through many
  // slot boundaries. Rotation may drop a bounded number of samples (the
  // documented skew) but must never produce *extra* counts, crash, or race.
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 4;
  opts.slot_width_ms = 1.0;
  opts.clock = &clock;
  WindowedCounter counter(opts);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> attempted{0};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Increment();
        attempted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) clock.AdvanceMillis(1.0);
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_LE(counter.Total(), attempted.load());
  EXPECT_GE(counter.Total(), 0);
}

TEST(WindowedHistogramTest, WindowPercentilesTrackRecentRecordsOnly) {
  ManualClock clock;
  WindowOptions opts;
  opts.slots = 3;
  opts.slot_width_ms = 1000.0;
  opts.clock = &clock;
  WindowedHistogram hist(opts);

  for (int i = 0; i < 100; ++i) hist.Record(1.0);  // epoch 0
  EXPECT_EQ(hist.Count(), 100);
  const double p50_fast = hist.Percentile(50.0);
  EXPECT_GT(p50_fast, 0.5);
  EXPECT_LE(p50_fast, 2.0);

  // Three slots later the 1 ms population is gone; only the slow tail
  // recorded now remains.
  clock.AdvanceMillis(3000.0);
  for (int i = 0; i < 10; ++i) hist.Record(500.0);
  EXPECT_EQ(hist.Count(), 10);
  EXPECT_GT(hist.Percentile(50.0), 100.0);
}

TEST(WindowedHistogramTest, ConcurrentRecordsAtFixedTimeStayExact) {
  ManualClock clock;
  WindowOptions opts;
  opts.clock = &clock;
  WindowedHistogram hist(opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Record(1.0);
    });
  }
  for (auto& th : threads) th.join();
  const metrics::HistogramSnapshot snap = hist.SnapshotWindow();
  EXPECT_EQ(snap.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * kPerThread);
}

TEST(WindowRegistryTest, SameNameReturnsSamePointerAndSnapshotsAll) {
  auto& reg = WindowRegistry::Global();
  WindowedCounter* a = reg.GetCounter("qps.test.window_counter");
  WindowedCounter* b = reg.GetCounter("qps.test.window_counter");
  EXPECT_EQ(a, b);
  a->Increment(3);
  reg.GetHistogram("qps.test.window_hist")->Record(1.0);

  const WindowSnapshot snap = reg.TakeSnapshot();
  bool saw_counter = false, saw_hist = false;
  for (const auto& c : snap.counters) {
    if (c.name == "qps.test.window_counter") {
      saw_counter = true;
      EXPECT_GE(c.total, 3);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "qps.test.window_hist") {
      saw_hist = true;
      EXPECT_GE(h.hist.count, 1);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
}

// ---- Owned metrics (the ledger primitive) -------------------------------

TEST(OwnedCounterTest, OneIncrementMovesOwnerFamilyAndWindows) {
  metrics::Counter* family =
      metrics::Registry::Global().GetCounter("qps.test.owned_one");
  WindowedCounter* window =
      WindowRegistry::Global().GetCounter("qps.test.owned_one");
  const int64_t family_before = family->value();
  const int64_t window_before = window->Total();

  OwnedCounter owned("qps.test.owned_one", Feed::kWindowed,
                     "qps.test.owned_one_by", "t1");
  owned.Increment();
  EXPECT_EQ(owned.value(), 1);
  EXPECT_EQ(family->value() - family_before, 1);
  EXPECT_EQ(window->Total() - window_before, 1);
  EXPECT_EQ(
      WindowRegistry::Global().GetCounter("qps.test.owned_one_by.t1")->Total(),
      1);
}

TEST(OwnedCounterTest, TwoOwnersSumInTheFamilyButKeepTheirOwnValues) {
  metrics::Counter* family =
      metrics::Registry::Global().GetCounter("qps.test.owned_two");
  const int64_t before = family->value();
  OwnedCounter a("qps.test.owned_two");
  OwnedCounter b("qps.test.owned_two");
  a.Increment(2);
  b.Increment(5);
  EXPECT_EQ(a.value(), 2);
  EXPECT_EQ(b.value(), 5);
  EXPECT_EQ(family->value() - before, 7);
}

TEST(OwnedCounterTest, DisabledWindowsStillCountTheOwnerAndTheFamily) {
  auto& reg = metrics::Registry::Global();
  auto& win = WindowRegistry::Global();
  const int64_t counter_before =
      reg.GetCounter("qps.test.owned_off")->value();
  const int64_t hist_before =
      reg.GetHistogram("qps.test.owned_off_ms")->count();
  OwnedCounter counter("qps.test.owned_off", Feed::kWindowed);
  OwnedHistogram hist("qps.test.owned_off_ms", Feed::kWindowed);

  SetWindowedEnabled(false);
  counter.Increment(3);
  hist.Record(2.0);
  SetWindowedEnabled(true);

  EXPECT_EQ(counter.value(), 3);
  EXPECT_EQ(reg.GetCounter("qps.test.owned_off")->value() - counter_before, 3);
  EXPECT_EQ(win.GetCounter("qps.test.owned_off")->Total(), 0);
  EXPECT_EQ(hist.count(), 1);
  EXPECT_EQ(reg.GetHistogram("qps.test.owned_off_ms")->count() - hist_before,
            1);
  EXPECT_EQ(win.GetHistogram("qps.test.owned_off_ms")->Count(), 0);
}

TEST(OwnedHistogramTest, OneRecordMovesOwnerFamilyAndWindows) {
  auto& reg = metrics::Registry::Global();
  auto& win = WindowRegistry::Global();
  const int64_t family_before =
      reg.GetHistogram("qps.test.owned_hist")->count();
  OwnedHistogram hist("qps.test.owned_hist", Feed::kWindowed,
                      "qps.test.owned_hist_by", "t1");
  hist.Record(3.0);
  hist.Record(1.0);
  EXPECT_EQ(hist.count(), 2);
  EXPECT_EQ(hist.sum(), 4.0);
  EXPECT_EQ(hist.max(), 3.0);
  EXPECT_EQ(reg.GetHistogram("qps.test.owned_hist")->count() - family_before,
            2);
  EXPECT_GE(win.GetHistogram("qps.test.owned_hist")->Count(), 2);
  EXPECT_EQ(win.GetHistogram("qps.test.owned_hist_by.t1")->Count(), 2);
}

TEST(OwnedCounterTest, ConcurrentIncrementsSumExactly) {
  metrics::Counter* family =
      metrics::Registry::Global().GetCounter("qps.test.owned_race");
  const int64_t before = family->value();
  OwnedCounter counter("qps.test.owned_race");
  OwnedHistogram hist("qps.test.owned_race_ms");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Record(static_cast<double>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(counter.value(), kTotal);
  EXPECT_EQ(family->value() - before, kTotal);
  EXPECT_EQ(hist.count(), kTotal);
  // 0 + 1 + ... + 7 per round, exact in a double.
  EXPECT_EQ(hist.sum(), 28.0 * kPerThread);
  EXPECT_EQ(hist.max(), static_cast<double>(kThreads - 1));
}

// ---- Accuracy / drift ---------------------------------------------------

AccuracySample MakeSample(double pred_rows, double actual_rows) {
  AccuracySample s;
  s.backend = "guarded";
  s.predicted_rows = pred_rows;
  s.actual_rows = actual_rows;
  s.predicted_ms = 1.0;
  s.actual_ms = 1.0;
  return s;
}

TEST(AccuracyTrackerTest, WindowQuantilesMatchTheSamples) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  AccuracyTracker tracker(opts);

  // q-errors: 1, 2, 4 — median 2.
  tracker.Observe(MakeSample(100, 100));
  tracker.Observe(MakeSample(200, 100));
  tracker.Observe(MakeSample(100, 400));
  const auto report = tracker.Peek("guarded");
  EXPECT_EQ(report.samples, 3);
  EXPECT_NEAR(report.qerr_p50, 2.0, 1e-9);
  EXPECT_GE(report.qerr_p95, 2.0);
}

TEST(AccuracyTrackerTest, SamplesOutsideTheWindowAreIgnored) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.window_ms = 1000.0;
  AccuracyTracker tracker(opts);

  tracker.Observe(MakeSample(100, 100));
  clock.AdvanceMillis(2000.0);
  tracker.Observe(MakeSample(300, 100));
  const auto report = tracker.Peek();
  EXPECT_EQ(report.samples, 1);
  EXPECT_NEAR(report.qerr_p50, 3.0, 1e-9);
}

TEST(AccuracyTrackerTest, SamplingStrideKeepsEveryNth) {
  AccuracyOptions opts;
  opts.sample_every = 3;
  AccuracyTracker tracker(opts);
  int kept = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracker.Observe(MakeSample(100, 100))) ++kept;
  }
  EXPECT_EQ(kept, 3);
}

TEST(AccuracyTrackerTest, DriftInjectionRaisesTheScoreWithinOneWindow) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.window_ms = 1000.0;
  opts.drift_threshold = 2.0;
  AccuracyTracker tracker(opts);

  // Healthy phase: q-error ~1.2. First Update seeds the baseline.
  for (int i = 0; i < 50; ++i) tracker.Observe(MakeSample(120, 100));
  auto healthy = tracker.Update();
  EXPECT_NEAR(healthy.drift_score, 1.2 / 1.2, 0.3);
  EXPECT_FALSE(healthy.drifted);

  // Skew the labels mid-run: the same model now mispredicts by 10x.
  clock.AdvanceMillis(1500.0);  // healthy samples fall out of the window
  for (int i = 0; i < 50; ++i) tracker.Observe(MakeSample(100, 1000));
  auto drifted = tracker.Update();
  EXPECT_GE(drifted.drift_score, opts.drift_threshold);
  EXPECT_TRUE(drifted.drifted);
  EXPECT_NEAR(drifted.qerr_p50, 10.0, 1e-6);
}

TEST(AccuracyTrackerTest, UpdatePublishesTheDriftGauges) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  AccuracyTracker tracker(opts);
  for (int i = 0; i < 10; ++i) tracker.Observe(MakeSample(500, 100));
  tracker.Update();

  auto& reg = metrics::Registry::Global();
  EXPECT_NEAR(reg.GetGauge("qps.model.drift.qerr_p50")->value(), 5.0, 1e-6);
  EXPECT_GT(reg.GetGauge("qps.model.drift.score")->value(), 0.0);
}

TEST(AccuracyTrackerTest, BackendsAreTrackedSeparately) {
  AccuracyTracker tracker;
  AccuracySample a = MakeSample(200, 100);
  a.backend = "mcts";
  AccuracySample b = MakeSample(800, 100);
  b.backend = "greedy";
  tracker.Observe(a);
  tracker.Observe(b);

  EXPECT_NEAR(tracker.Peek("mcts").qerr_p50, 2.0, 1e-9);
  EXPECT_NEAR(tracker.Peek("greedy").qerr_p50, 8.0, 1e-9);
  EXPECT_EQ(tracker.Peek().samples, 2);  // "" merges
  EXPECT_EQ(tracker.Backends().size(), 2u);
}

TEST(AccuracyTrackerTest, ConcurrentObserversNeverLoseSamples) {
  ManualClock clock;
  AccuracyOptions opts;
  opts.clock = &clock;
  opts.capacity = 100'000;
  AccuracyTracker tracker(opts);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker] {
      for (int i = 0; i < kPerThread; ++i) {
        tracker.Observe(MakeSample(100, 100));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracker.Peek().samples, int64_t{kThreads} * kPerThread);
}

// ---- Prometheus exposition ----------------------------------------------

const PromSample* FindSample(const std::vector<PromSample>& samples,
                             const std::string& key) {
  for (const auto& s : samples) {
    if (s.Key() == key) return &s;
  }
  return nullptr;
}

TEST(PrometheusTest, RoundTripPreservesValuesExactly) {
  auto& reg = metrics::Registry::Global();
  reg.GetCounter("qps.test.prom_counter")->Reset();
  reg.GetCounter("qps.test.prom_counter")->Increment(42);
  reg.GetGauge("qps.test.prom_gauge")->Set(2.718281828459045);
  metrics::Histogram* hist = reg.GetHistogram("qps.test.prom_hist");
  hist->Reset();
  hist->Record(0.0005);  // bucket 0
  hist->Record(0.003);   // bucket 2 (le 0.004)
  hist->Record(1e15);    // overflow

  const std::string text = RenderPrometheus(reg.TakeSnapshot());
  auto parsed = ParsePrometheus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const PromSample* counter = FindSample(*parsed, "qps_test_prom_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 42.0);

  const PromSample* gauge = FindSample(*parsed, "qps_test_prom_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 2.718281828459045);  // %.17g round-trips exactly

  // Cumulative le semantics: each bucket counts everything <= its bound,
  // +Inf equals _count.
  // Bucket labels carry %.17g bounds (not all decimals are exact doubles),
  // so match them by parsed value rather than by string.
  auto bucket_at = [&](double bound) -> const PromSample* {
    for (const auto& s : *parsed) {
      if (s.name != "qps_test_prom_hist_bucket" || s.labels.size() != 1) {
        continue;
      }
      const double le = std::strtod(s.labels[0].second.c_str(), nullptr);
      if (std::abs(le - bound) < bound * 1e-9) return &s;
    }
    return nullptr;
  };
  const PromSample* le0 = bucket_at(0.001);
  ASSERT_NE(le0, nullptr);
  EXPECT_EQ(le0->value, 1.0);
  const PromSample* le2 = bucket_at(0.004);
  ASSERT_NE(le2, nullptr);
  EXPECT_EQ(le2->value, 2.0);
  const PromSample* inf =
      FindSample(*parsed, "qps_test_prom_hist_bucket{le=\"+Inf\"}");
  ASSERT_NE(inf, nullptr);
  EXPECT_EQ(inf->value, 3.0);
  const PromSample* count = FindSample(*parsed, "qps_test_prom_hist_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, inf->value);

  // Buckets never decrease along le.
  double prev = -1.0;
  for (const auto& s : *parsed) {
    if (s.name == "qps_test_prom_hist_bucket") {
      EXPECT_GE(s.value, prev);
      prev = s.value;
    }
  }
}

TEST(PrometheusTest, WindowSnapshotExportsRatesAndPercentiles) {
  auto& win = WindowRegistry::Global();
  win.GetCounter("qps.test.prom_window")->Increment(5);
  win.GetHistogram("qps.test.prom_window_hist")->Record(4.0);

  metrics::Snapshot empty;
  const WindowSnapshot wsnap = win.TakeSnapshot();
  const std::string text = RenderPrometheus(empty, &wsnap);
  auto parsed = ParsePrometheus(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const PromSample* total =
      FindSample(*parsed, "qps_test_prom_window_window_total");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->value, 5.0);
  EXPECT_NE(FindSample(*parsed, "qps_test_prom_window_hist_window_p99"),
            nullptr);
}

TEST(PrometheusTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(ParsePrometheus("metric{le=\"0.1\" 3\n").ok());
  EXPECT_FALSE(ParsePrometheus("metric_without_value\n").ok());
  EXPECT_FALSE(ParsePrometheus("metric not_a_number\n").ok());
  EXPECT_TRUE(ParsePrometheus("# just a comment\n\n").ok());
}

// ---- JSON reader --------------------------------------------------------

TEST(JsonReaderTest, ParsesTheBasicShapes) {
  auto doc = ParseJson(
      R"({"a":1.5,"b":"x\n\"y\"","c":[1,2,3],"d":{"e":true,"f":null},"g":-2e3})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("a", 0), 1.5);
  EXPECT_EQ(doc->StringOr("b", ""), "x\n\"y\"");
  ASSERT_NE(doc->Find("c"), nullptr);
  EXPECT_EQ(doc->Find("c")->array().size(), 3u);
  EXPECT_EQ(doc->FindPath("d.e")->boolean(), true);
  EXPECT_EQ(doc->NumberOr("g", 0), -2000.0);
}

TEST(JsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

// ---- Obs JSON document + snapshot writer --------------------------------

TEST(ObsJsonTest, DocumentParsesAndCarriesEverySection) {
  metrics::Registry::Global().GetCounter("qps.test.obsjson")->Increment();
  WindowRegistry::Global().GetCounter("qps.test.obsjson")->Increment();

  const std::string json = RenderObsJson(7);
  auto doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << json;
  EXPECT_EQ(doc->NumberOr("seq", 0), 7.0);
  EXPECT_NE(doc->FindPath("metrics.counters"), nullptr);
  EXPECT_NE(doc->FindPath("window.counters"), nullptr);
  EXPECT_NE(doc->FindPath("drift.score"), nullptr);
  const JsonValue* counter =
      doc->FindPath("metrics.counters")->Find("qps.test.obsjson");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number(), 1.0);
}

TEST(SnapshotWriterTest, WriteOnceProducesAParseableFile) {
  const std::string path = TempPath("qps_obs_snapshot_test.json");
  SnapshotWriter writer(path, 50.0);
  ASSERT_TRUE(writer.WriteOnce().ok());
  EXPECT_EQ(writer.snapshots_written(), 1);

  auto contents = io::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  auto doc = ParseJson(*contents);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->NumberOr("seq", 0), 1.0);
  std::remove(path.c_str());
}

TEST(SnapshotWriterTest, BackgroundThreadWritesAndStops) {
  const std::string path = TempPath("qps_obs_snapshot_bg_test.json");
  {
    SnapshotWriter writer(path, 10.0);
    writer.Start();
    while (writer.snapshots_written() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    writer.Stop();
    EXPECT_GE(writer.snapshots_written(), 2);
  }  // destructor must not hang
  std::remove(path.c_str());
}

// ---- Audit log ----------------------------------------------------------

TEST(AuditTest, RenderedLineMatchesTheSchema) {
  AuditRecord record;
  record.query_hash = 0x9f2c;
  record.backend = "guarded";
  record.stage = "neural";
  record.outcome = "ok";
  record.deadline_hit = true;
  record.queue_ms = 0.25;
  record.plan_ms = 12.5;
  record.plans_evaluated = 64;
  record.fallback_reason = "";

  const std::string line = RenderAuditJson(record, 1000.0);
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << line;
  EXPECT_EQ(doc->StringOr("query_hash", ""), "0000000000009f2c");
  EXPECT_EQ(doc->StringOr("backend", ""), "guarded");
  EXPECT_EQ(doc->StringOr("stage", ""), "neural");
  EXPECT_EQ(doc->StringOr("outcome", ""), "ok");
  EXPECT_EQ(doc->Find("deadline_hit")->boolean(), true);
  EXPECT_EQ(doc->NumberOr("plan_ms", 0), 12.5);
  EXPECT_EQ(doc->NumberOr("plans_evaluated", 0), 64.0);
}

TEST(AuditTest, AppendWritesOneParseableLinePerRecord) {
  const std::string path = TempPath("qps_obs_audit_test.jsonl");
  std::remove(path.c_str());
  auto log = AuditLog::Open(path);
  ASSERT_TRUE(log.ok());

  AuditRecord record;
  record.backend = "guarded";
  record.outcome = "ok";
  (*log)->Append(record);
  record.outcome = "shed";
  (*log)->Append(record);
  EXPECT_EQ((*log)->records_written(), 2);

  auto contents = io::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  int lines = 0;
  size_t pos = 0;
  while (pos < contents->size()) {
    size_t eol = contents->find('\n', pos);
    if (eol == std::string::npos) eol = contents->size();
    const std::string line = contents->substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    ++lines;
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.ok()) << line;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(AuditTest, OpenFailsOnAnUnwritablePath) {
  EXPECT_FALSE(AuditLog::Open("/nonexistent_dir_zz/audit.jsonl").ok());
}

// ---- qps_top board ------------------------------------------------------

TEST(TopBoardTest, RendersThroughputLatencyLadderAndDrift) {
  const std::string doc_json = R"({"ts_ms":5000,"seq":3,
    "metrics":{"counters":{"qps.serve.requests":900,
                           "qps.serve.shed":4,
                           "qps.serve.deadline_misses":2},
               "gauges":{"qps.serve.inflight":5,
                         "qps.serve.queue_depth":7,
                         "qps.health.state.neural":0,
                         "qps.health.state.neural_t1":1},
               "histograms":{}},
    "window":{"counters":{"qps.serve.requests":{"total":120,"rate":40},
                          "qps.guarded.served_neural":{"total":80,"rate":26},
                          "qps.guarded.served_greedy":{"total":30,"rate":10},
                          "qps.guarded.served_traditional":{"total":10,"rate":3.3}},
              "histograms":{"qps.serve.latency_ms":{"count":120,"rate":40,
                            "p50":2.5,"p90":8,"p99":20}}},
    "drift":{"score":2.4,"qerr_p50":3.1,"qerr_p95":9.9,"samples":55,
             "drifted":true}})";
  auto cur = ParseJson(doc_json);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();

  const std::string prev_json =
      R"({"metrics":{"counters":{"qps.serve.requests":800}}})";
  auto prev = ParseJson(prev_json);
  ASSERT_TRUE(prev.ok());

  const std::string board = FormatTopBoard(*cur, &*prev, 2.0);
  // Throughput from the counter delta: (900 - 800) / 2 s.
  EXPECT_NE(board.find("50.0 req/s (delta)"), std::string::npos);
  EXPECT_NE(board.find("inflight   5"), std::string::npos);
  EXPECT_NE(board.find("p99    20.00 ms"), std::string::npos);
  EXPECT_NE(board.find("neural    80"), std::string::npos);
  EXPECT_NE(board.find("breaker OPEN"), std::string::npos);
  EXPECT_NE(board.find("** DRIFT **"), std::string::npos);

  // First poll: no previous snapshot, fall back to the window rate.
  const std::string first = FormatTopBoard(*cur, nullptr, 0.0);
  EXPECT_NE(first.find("40.0 req/s (window)"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace qps
