// Copyright 2026 The QPSeeker Authors
//
// Tests for the end-to-end benchmark's helpers (bench_util.h).

#include "bench_util.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace e2e {
namespace {

TEST(ScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(42, 60.0, 500);
  const auto b = PoissonSchedule(42, 60.0, 500);
  const auto c = PoissonSchedule(43, 60.0, 500);
  ASSERT_EQ(a.size(), 500u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ScheduleTest, IncreasingAtTheRequestedRate) {
  const auto due = PoissonSchedule(7, 50.0, 5000);
  for (size_t i = 1; i < due.size(); ++i) EXPECT_GT(due[i], due[i - 1]);
  // 5000 arrivals at 50/s span about 100 s; the mean gap is within 5%.
  const double mean_gap = due.back() / static_cast<double>(due.size());
  EXPECT_NEAR(mean_gap, 20.0, 1.0);
}

TEST(ScheduleTest, LatencyCountsFromDueAndLagIsReported) {
  // Sent 30 ms late and answered 10 ms after sending: the request waited 40.
  const OpenLoopTiming late = TimeFromDue(100.0, 130.0, 140.0);
  EXPECT_DOUBLE_EQ(late.latency_ms, 40.0);
  EXPECT_DOUBLE_EQ(late.lag_ms, 30.0);
  // Sent early (clock jitter) never reports negative lag.
  const OpenLoopTiming early = TimeFromDue(100.0, 99.5, 105.0);
  EXPECT_DOUBLE_EQ(early.latency_ms, 5.0);
  EXPECT_DOUBLE_EQ(early.lag_ms, 0.0);
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(NearestRank(v, 50.0), 5);
  EXPECT_EQ(NearestRank(v, 90.0), 9);
  EXPECT_EQ(NearestRank(v, 100.0), 10);
  EXPECT_EQ(NearestRank({}, 50.0), 0);
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(PercentileTest, TailHasTenSamplesBeyondIt) {
  // 1000 samples: p99 is rank 990, ten samples above it; p99.5 would leave 5.
  TailSummary t = Summarize(Ramp(1000));
  EXPECT_EQ(t.count, 1000u);
  EXPECT_DOUBLE_EQ(t.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(t.tail, 990.0);
  EXPECT_DOUBLE_EQ(t.p50, 500.0);

  // 999 samples: p99 leaves only 9 beyond, so the tail drops to p98.
  t = Summarize(Ramp(999));
  EXPECT_EQ(t.count, 999u);
  EXPECT_DOUBLE_EQ(t.tail_pct, 98.0);

  // 10000 samples support p99.9.
  EXPECT_DOUBLE_EQ(Summarize(Ramp(10000)).tail_pct, 99.9);

  // Too few samples for any tail: report the maximum, percentile 0.
  t = Summarize(Ramp(15));
  EXPECT_DOUBLE_EQ(t.tail_pct, 0.0);
  EXPECT_DOUBLE_EQ(t.tail, 15.0);
  EXPECT_EQ(t.count, 15u);
}

TEST(PercentileTest, FixedPercentileNeedsTenSamplesBeyondIt) {
  // 2000 samples would support p99.5, but a p99 metric still reports p99.
  EXPECT_DOUBLE_EQ(SupportedPercentile(Ramp(2000), 99.0), 1980.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(Ramp(1000), 99.0), 990.0);
  // 999 samples leave nine beyond p99: no figure.
  EXPECT_TRUE(std::isnan(SupportedPercentile(Ramp(999), 99.0)));
  EXPECT_TRUE(std::isnan(SupportedPercentile({}, 50.0)));
}

TEST(PercentileTest, MedianAcrossPassesIgnoresOneSlowPass) {
  const double kNone = std::nan("");
  // Request 0 was slowed in pass 1 only, request 1 failed in pass 2,
  // request 2 failed everywhere, request 3 is missing from the short pass.
  const std::vector<std::vector<double>> passes = {
      {5.0, 7.0, kNone, 1.0},
      {50.0, 8.0, kNone, 2.0},
      {6.0, kNone, kNone},
  };
  const std::vector<double> med = MediansAcrossPasses(passes);
  ASSERT_EQ(med.size(), 4u);
  EXPECT_DOUBLE_EQ(med[0], 6.0);
  EXPECT_DOUBLE_EQ(med[1], 7.0);  // nearest rank: the lower of two
  EXPECT_TRUE(std::isnan(med[2]));
  EXPECT_DOUBLE_EQ(med[3], 1.0);
  EXPECT_TRUE(MediansAcrossPasses({}).empty());
}

TEST(ZipfTest, PopularityFallsWithRank) {
  const ZipfPicker zipf(8, 1.0);
  double total = 0.0;
  for (int r = 0; r < zipf.size(); ++r) {
    total += zipf.Probability(r);
    if (r > 0) {
      EXPECT_LT(zipf.Probability(r), zipf.Probability(r - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // H(8) = 2.717857..., so rank 0 gets 1 / H(8).
  EXPECT_NEAR(zipf.Probability(0), 1.0 / 2.717857142857143, 1e-12);
}

TEST(ZipfTest, PicksFollowTheDistributionDeterministically) {
  const ZipfPicker zipf(8, 1.0);
  std::vector<int> counts(8, 0), again(8, 0);
  SplitMix a(9), b(9);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<size_t>(zipf.Pick(a.Uniform()))] += 1;
    again[static_cast<size_t>(zipf.Pick(b.Uniform()))] += 1;
  }
  EXPECT_EQ(counts, again);
  for (int r = 0; r < 8; ++r) {
    EXPECT_NEAR(counts[static_cast<size_t>(r)] / static_cast<double>(n),
                zipf.Probability(r), 0.005);
  }
  EXPECT_EQ(zipf.Pick(0.0), 0);
  EXPECT_EQ(zipf.Pick(0.999999999), 7);
}

TEST(GeoMeanTest, RatioOfRuntimes) {
  std::string err;
  auto r = GeoMeanRatio({2.0, 8.0}, {1.0, 2.0}, &err);
  ASSERT_TRUE(r.has_value()) << err;
  EXPECT_NEAR(*r, std::sqrt(2.0 * 4.0), 1e-12);
}

TEST(GeoMeanTest, RejectsZeroAndNonFiniteRuntimes) {
  std::string err;
  EXPECT_FALSE(GeoMeanRatio({1.0, 0.0}, {1.0, 1.0}, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(GeoMeanRatio({1.0}, {0.0}, &err).has_value());
  EXPECT_FALSE(GeoMeanRatio({-1.0}, {1.0}, &err).has_value());
  EXPECT_FALSE(
      GeoMeanRatio({std::numeric_limits<double>::infinity()}, {1.0}, &err).has_value());
  EXPECT_FALSE(GeoMeanRatio({1.0}, {std::nan("")}, &err).has_value());
  EXPECT_FALSE(GeoMeanRatio({}, {}, &err).has_value());
  EXPECT_FALSE(GeoMeanRatio({1.0, 2.0}, {1.0}, &err).has_value());
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const int64_t root = log.Add("request", -1, 0, 0.0, 10.0);
  log.Add("plan", root, 0, 1.0, 6.0);
  // Two overlapping children of "plan" cover [2, 5].
  const int64_t plan = 1;
  log.Add("evaluate", plan, 0, 2.0, 4.0);
  log.Add("evaluate", plan, 0, 3.0, 5.0);
  log.Add("execute", root, 0, 7.0, 9.0);
  const auto self = SelfTimesMs(log.spans());
  EXPECT_DOUBLE_EQ(self.at("request"), 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self.at("plan"), 5.0 - 3.0);
  EXPECT_DOUBLE_EQ(self.at("evaluate"), 4.0);
  EXPECT_DOUBLE_EQ(self.at("execute"), 2.0);
}

}  // namespace
}  // namespace e2e
