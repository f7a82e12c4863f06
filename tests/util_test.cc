// Copyright 2026 The QPSeeker Authors

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "core/plan_cache.h"
#include "query/plan.h"
#include "query/query.h"
#include "serve/retry.h"
#include "serve/tenant.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/scale.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace qps {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad width");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad width");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad width");
}

TEST(StatusTest, Predicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

TEST(StatusTest, RetryableClassification) {
  // Transient: worth another attempt once the condition clears.
  EXPECT_TRUE(Status::ResourceExhausted("shed").IsRetryable());
  EXPECT_TRUE(Status::Unavailable("quarantined").IsRetryable());
  EXPECT_TRUE(Status::IOError("flaky disk").IsRetryable());
  // Terminal: retrying cannot change the outcome.
  EXPECT_FALSE(Status::OK().IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("bad query").IsRetryable());
  EXPECT_FALSE(Status::NotFound("no tenant").IsRetryable());
  EXPECT_FALSE(Status::Internal("defect").IsRetryable());
  EXPECT_FALSE(Status::Aborted("cancelled").IsRetryable());
  EXPECT_FALSE(Status::DeadlineExceeded("late").IsRetryable());
}

TEST(StatusTest, ReasonPayloadIsMachineReadable) {
  Status plain = Status::Unavailable("tenant quarantined");
  EXPECT_EQ(plain.reason(), "");
  Status tagged = Status::Unavailable("tenant quarantined").SetReason("quarantined");
  EXPECT_EQ(tagged.reason(), "quarantined");
  EXPECT_EQ(tagged.code(), StatusCode::kUnavailable);
  // The reason survives copies and shows in ToString for humans.
  Status copy = tagged;
  EXPECT_EQ(copy.reason(), "quarantined");
  EXPECT_NE(tagged.ToString().find("quarantined"), std::string::npos);
  // OK statuses carry no reason.
  EXPECT_EQ(Status::OK().reason(), "");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseParse(int x, int* out) {
  QPS_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(StatusOrTest, ValueAndError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  auto bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseParse(-2, &out).ok());
}

TEST(StatusOrTest, ValueOrSubstitutesFallbackOnError) {
  EXPECT_EQ(ParsePositive(5).value_or(-1), 5);
  EXPECT_EQ(ParsePositive(-3).value_or(-1), -1);
  StatusOr<std::string> missing = Status::NotFound("gone");
  EXPECT_EQ(missing.value_or("default"), "default");
  EXPECT_EQ(std::move(missing).value_or("default"), "default");
}

TEST(StatusOrDeathTest, ValueOnErrorFatalLogsInAllBuildModes) {
  auto bad = ParsePositive(-1);
  EXPECT_DEATH(bad.value(), "StatusOr::value\\(\\) on error");
  EXPECT_DEATH(*ParsePositive(0), "InvalidArgument: not positive");
}

TEST(StatusOrDeathTest, ConstructionFromOkStatusFatalLogs) {
  EXPECT_DEATH(
      {
        StatusOr<int> so{Status::OK()};
        (void)so;
      },
      "OK status");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// Every user of the one splitmix64 finalizer (util/hash.h), pinned at the
// values it produced before the hand copies were folded into it: shard
// placement, retry schedules, prediction-cache keys and RNG streams must
// not move when the mixing code does.
TEST(HashPinTest, SplitMixUsersKeepTheirValues) {
  EXPECT_EQ(serve::TenantHash(""), 0x552d3fb62b3c344fULL);
  EXPECT_EQ(serve::TenantHash("tenant_00"), 0xe736984262c7e03dULL);
  EXPECT_EQ(serve::TenantHash("tenant_01"), 0xcfc909dd2e894d9dULL);
  EXPECT_EQ(serve::TenantHash("acme"), 0xb4f728aec83c4a7dULL);

  serve::RetryPolicy retry;
  retry.max_retries = 3;
  EXPECT_EQ(retry.BackoffMs(1, 0), 1.93152799704851);
  EXPECT_EQ(retry.BackoffMs(1, 42), 1.6599103928769201);
  EXPECT_EQ(retry.BackoffMs(2, 0), 3.0528675431851955);
  EXPECT_EQ(retry.BackoffMs(2, 42), 3.5572022605102775);
  EXPECT_EQ(retry.BackoffMs(3, 0), 9.8835279126153139);
  EXPECT_EQ(retry.BackoffMs(3, 42), 7.3767628660945501);

  query::Query q;
  q.relations = {{0, "a"}, {1, "b"}};
  query::JoinPredicate join;
  join.left_rel = 0;
  join.left_column = 0;
  join.right_rel = 1;
  join.right_column = 1;
  join.schema_edge = 0;
  q.joins = {join};
  const auto filter = [](int rel, int column, storage::CompareOp op, storage::Value v) {
    query::FilterPredicate f;
    f.rel = rel;
    f.column = column;
    f.op = op;
    f.value = std::move(v);
    return f;
  };
  q.filters = {filter(0, 2, storage::CompareOp::kLt, storage::Value::Int(7)),
               filter(1, 3, storage::CompareOp::kEq, storage::Value::Str("x")),
               filter(1, 4, storage::CompareOp::kGe, storage::Value::Float(2.5))};
  EXPECT_EQ(core::QueryFingerprint(q), 0xc23cd496853b028eULL);

  query::PlanNode plan;
  plan.op = query::OpType::kHashJoin;
  plan.join_preds = {0};
  plan.left = std::make_unique<query::PlanNode>();
  plan.left->rel = 0;
  plan.right = std::make_unique<query::PlanNode>();
  plan.right->op = query::OpType::kIndexScan;
  plan.right->rel = 1;
  EXPECT_EQ(core::PlanShapeHash(plan), 0x9b291b8b38182d26ULL);
  EXPECT_EQ(core::PlanShapeHash(*plan.left), 0x9210087ce6725de1ULL);

  Rng seeded(7);
  EXPECT_EQ(seeded.Next(), 0xb358faf74ef9765aULL);
  EXPECT_EQ(seeded.Next(), 0x475c3d964f482cd2ULL);
  EXPECT_EQ(seeded.Next(), 0xd6f1d349952c7996ULL);
  EXPECT_EQ(Rng().Next(), 0x422ea740d0977210ULL);

  EXPECT_EQ(util::Mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(util::HashCombine(1, 2), 0xa3efbcce2e044f84ULL);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-3}, int64_t{4});
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 4);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(5);
  std::vector<double> w = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependent) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfTest, RankOneMostFrequent) {
  Rng rng(13);
  ZipfDistribution zipf(100, 1.1);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t r = zipf.Sample(&rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 100u);
    ++counts[r];
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[1], counts[50] * 5);
}

TEST(RngDeathTest, CategoricalOverEmptyWeightsFatalLogs) {
  Rng rng(1);
  std::vector<double> empty;
  EXPECT_DEATH(rng.Categorical(empty), "empty weights");
}

TEST(ZipfDeathTest, ZeroRanksFatalLogs) {
  EXPECT_DEATH(ZipfDistribution(0, 1.1), "at least one rank");
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }
};

TEST_F(FaultInjectorTest, DisarmedCheckReturnsOkWithoutCounting) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  EXPECT_FALSE(fi.AnyArmed());
  EXPECT_TRUE(fault::Check("never.armed").ok());
  EXPECT_EQ(fi.Hits("never.armed"), 0);
  EXPECT_EQ(fault::CorruptDouble("never.armed", 1.5), 1.5);
}

TEST_F(FaultInjectorTest, NthHitTriggerFiresExactlyOnce) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec spec;
  spec.code = StatusCode::kAborted;
  spec.message = "boom";
  spec.trigger_on_hit = 2;
  fi.Arm("p", spec);
  EXPECT_TRUE(fi.AnyArmed());
  EXPECT_TRUE(fault::Check("p").ok());
  Status st = fault::Check("p");
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(st.message(), "boom");
  EXPECT_TRUE(fault::Check("p").ok()) << "non-sticky: fires on hit 2 only";
  EXPECT_EQ(fi.Hits("p"), 3);
  EXPECT_EQ(fi.Triggers("p"), 1);
}

TEST_F(FaultInjectorTest, StickyTriggerFiresFromNthHitOn) {
  fault::FaultSpec spec;
  spec.trigger_on_hit = 2;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("p", spec);
  EXPECT_TRUE(fault::Check("p").ok());
  EXPECT_FALSE(fault::Check("p").ok());
  EXPECT_FALSE(fault::Check("p").ok());
  EXPECT_EQ(fault::FaultInjector::Global().Triggers("p"), 2);
}

TEST_F(FaultInjectorTest, ArmedPointsAreIndependent) {
  fault::FaultSpec spec;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("p", spec);
  EXPECT_TRUE(fault::Check("other").ok())
      << "arming one point must not fail others";
  EXPECT_FALSE(fault::Check("p").ok());
}

TEST_F(FaultInjectorTest, ProbabilityZeroNeverFiresOneAlwaysFires) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec never;
  never.probability = 0.0;
  fi.Arm("never", never);
  fault::FaultSpec always;
  always.probability = 1.0;
  fi.Arm("always", always);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(fault::Check("never").ok());
    EXPECT_FALSE(fault::Check("always").ok());
  }
  EXPECT_EQ(fi.Triggers("never"), 0);
  EXPECT_EQ(fi.Triggers("always"), 50);
}

TEST_F(FaultInjectorTest, ProbabilisticStreamIsSeedReproducible) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec coin;
  coin.probability = 0.5;
  auto run = [&] {
    fi.Arm("coin", coin);
    fi.Seed(77);
    std::string pattern;
    for (int i = 0; i < 32; ++i) pattern += fault::Check("coin").ok() ? '.' : 'X';
    return pattern;
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('X'), std::string::npos);
  EXPECT_NE(first.find('.'), std::string::npos);
}

TEST_F(FaultInjectorTest, NanCorruptionOnlyWhenSpecFires) {
  fault::FaultSpec spec;
  spec.inject_nan = true;
  spec.trigger_on_hit = 2;
  fault::FaultInjector::Global().Arm("nan", spec);
  EXPECT_EQ(fault::CorruptDouble("nan", 3.0), 3.0);
  EXPECT_TRUE(std::isnan(fault::CorruptDouble("nan", 3.0)));
  EXPECT_EQ(fault::CorruptDouble("nan", 3.0), 3.0);
}

TEST_F(FaultInjectorTest, LatencyOnlyOkSpecDelaysButSucceeds) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kOk;
  spec.latency_ms = 1.0;
  spec.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("slow", spec);
  EXPECT_TRUE(fault::Check("slow").ok());
  EXPECT_EQ(fault::FaultInjector::Global().Triggers("slow"), 1);
}

TEST_F(FaultInjectorTest, RearmResetsCountersAndDisarmAllClears) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec spec;
  spec.trigger_on_hit = 1;
  fi.Arm("p", spec);
  (void)fault::Check("p");
  EXPECT_EQ(fi.Hits("p"), 1);
  fi.Arm("p", spec);  // re-arm resets
  EXPECT_EQ(fi.Hits("p"), 0);
  fi.DisarmAll();
  EXPECT_FALSE(fi.AnyArmed());
  EXPECT_TRUE(fault::Check("p").ok());
}

TEST_F(FaultInjectorTest, InjectedErrorsCarryFaultReason) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("tagged", spec);
  Status st = fault::Check("tagged");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.reason(), "fault_injected");
  EXPECT_TRUE(st.IsRetryable());
}

TEST_F(FaultInjectorTest, ContextScopedSpecOnlyFiresInMatchingContext) {
  fault::FaultInjector& fi = fault::FaultInjector::Global();
  fault::FaultSpec spec;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  spec.only_context = "tenant_a";
  fi.Arm("scoped", spec);

  // Wrong (and empty) contexts neither fire nor count hits.
  EXPECT_TRUE(fault::Check("scoped").ok());
  {
    fault::ScopedContext ctx("tenant_b");
    EXPECT_TRUE(fault::Check("scoped").ok());
  }
  EXPECT_EQ(fi.Hits("scoped"), 0);

  {
    fault::ScopedContext ctx("tenant_a");
    EXPECT_EQ(fault::ScopedContext::Current(), "tenant_a");
    EXPECT_FALSE(fault::Check("scoped").ok());
    {
      // Contexts nest and restore.
      fault::ScopedContext inner("tenant_b");
      EXPECT_TRUE(fault::Check("scoped").ok());
    }
    EXPECT_FALSE(fault::Check("scoped").ok());
  }
  EXPECT_EQ(fault::ScopedContext::Current(), "");
  EXPECT_TRUE(fault::Check("scoped").ok());
}

TEST(CancelTokenTest, ExplicitCancelTripsPromptly) {
  util::CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  EXPECT_TRUE(token.Check().ok());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  Status st = token.Check();
  EXPECT_TRUE(st.IsAborted());
  EXPECT_EQ(st.reason(), "cancelled");
}

TEST(CancelTokenTest, ArmedDeadlineTripsOnTheInjectedClock) {
  ManualClock manual;
  util::CancelToken token;
  token.ArmDeadline(50.0, &manual);
  EXPECT_FALSE(token.Cancelled());
  manual.AdvanceMillis(49.0);
  EXPECT_FALSE(token.Cancelled());
  manual.AdvanceMillis(2.0);
  EXPECT_TRUE(token.Cancelled());
  Status st = token.Check();
  EXPECT_TRUE(st.IsDeadlineExceeded());
  EXPECT_EQ(st.reason(), "cancelled");
}

TEST(CancelTokenTest, NullTolerantHelpers) {
  EXPECT_FALSE(util::Cancelled(nullptr));
  EXPECT_TRUE(util::CheckCancel(nullptr).ok());
  util::CancelToken token;
  token.Cancel();
  EXPECT_TRUE(util::Cancelled(&token));
  EXPECT_FALSE(util::CheckCancel(&token).ok());
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.234), "1.23");
}

TEST(StringUtilTest, SplitTrimLowerJoin) {
  auto parts = StrSplit("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(StrTrim(parts[1]), "b");
  EXPECT_EQ(StrLower("AbC"), "abc");
  EXPECT_EQ(StrJoin({"x", "y"}, "|"), "x|y");
  EXPECT_TRUE(StartsWith("select *", "select"));
  EXPECT_FALSE(StartsWith("sel", "select"));
}

TEST(StringUtilTest, SplitKeepsEmptyTokens) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(ScaleTest, EnvParsing) {
  setenv("QPS_SCALE", "paper", 1);
  EXPECT_EQ(GetScaleFromEnv(), Scale::kPaper);
  setenv("QPS_SCALE", "smoke", 1);
  EXPECT_EQ(GetScaleFromEnv(), Scale::kSmoke);
  setenv("QPS_SCALE", "garbage", 1);
  EXPECT_EQ(GetScaleFromEnv(Scale::kCi), Scale::kCi);
  unsetenv("QPS_SCALE");
  EXPECT_EQ(GetScaleFromEnv(Scale::kSmoke), Scale::kSmoke);
}

TEST(ClockTest, DefaultClockIsMonotone) {
  const Clock* clock = Clock::Default();
  const int64_t a = clock->NowNanos();
  const int64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);  // epoch is pinned at process start
}

TEST(ClockTest, ManualClockAdvancesOnDemandOnly) {
  ManualClock manual;
  EXPECT_EQ(manual.NowNanos(), 0);
  manual.AdvanceMillis(1.5);
  EXPECT_DOUBLE_EQ(manual.NowMillis(), 1.5);
  manual.AdvanceNanos(500);
  EXPECT_EQ(manual.NowNanos(), 1'500'500);
  manual.SetMillis(42.0);
  EXPECT_DOUBLE_EQ(manual.NowMillis(), 42.0);
  EXPECT_DOUBLE_EQ(manual.NowSeconds(), 0.042);
}

TEST(ClockTest, TimerReadsTheInjectedClock) {
  ManualClock manual;
  Timer timer(&manual);
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 0.0);
  manual.AdvanceMillis(250.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 250.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedSeconds(), 0.25);
  manual.SetMillis(1000.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis(), 1000.0);
}

TEST(VlogTest, GatedOnRuntimeVerbosity) {
  SetVerbosity(0);
  EXPECT_FALSE(VlogEnabled(1));
  EXPECT_TRUE(VlogEnabled(0));
  SetVerbosity(2);
  EXPECT_TRUE(VlogEnabled(1));
  EXPECT_TRUE(VlogEnabled(2));
  EXPECT_FALSE(VlogEnabled(3));
  SetVerbosity(0);
}

TEST(VlogTest, DisabledVlogDoesNotEvaluateTheStream) {
  SetVerbosity(0);
  int evaluations = 0;
  auto side_effect = [&evaluations] {
    ++evaluations;
    return "x";
  };
  QPS_VLOG(5) << side_effect();
  EXPECT_EQ(evaluations, 0);
  SetVerbosity(5);
  QPS_VLOG(5) << side_effect();
  EXPECT_EQ(evaluations, 1);
  SetVerbosity(0);
}

TEST(VlogTest, ThreadIdsAreDense) {
  const int self = LogThreadId();
  EXPECT_GE(self, 0);
  EXPECT_EQ(self, LogThreadId());  // stable within a thread
}

}  // namespace
}  // namespace qps
