// Copyright 2026 The QPSeeker Authors
//
// Self-healing serving tests: the HealthMonitor breaker state machine
// under a ManualClock (trip, quarantine, half-open probing, recovery,
// re-quarantine), deterministic deadline-budgeted retries (a fixed seed
// yields a byte-identical plan even when the first attempt was faulted,
// and a retry's backoff holds no worker), quarantine fast-fail vs inline
// degrade, and cooperative cancellation through the serving stack.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/health.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "one_tenant.h"
#include "query/parser.h"
#include "serve/retry.h"
#include "serve/sharded_service.h"
#include "storage/schemas.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace qps {
namespace serve {
namespace {

using core::AdmitDecision;
using core::HealthMonitor;
using core::HealthOptions;
using core::HealthState;

// ---------------------------------------------------------------------------
// HealthMonitor state machine (ManualClock, no serving stack).

HealthOptions SmallWindow(const Clock* clock) {
  HealthOptions opts;
  opts.window_ms = 1000.0;
  opts.min_samples = 4;
  opts.open_error_rate = 0.5;
  opts.open_ms = 500.0;
  opts.probe_concurrency = 1;
  opts.probe_recoveries = 2;
  opts.clock = clock;
  return opts;
}

TEST(HealthMonitorTest, TripsOnErrorRateAfterMinSamples) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  const Status boom = Status::Internal("boom");

  // Three failures: below min_samples, still closed.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kAdmit);
    monitor.Record("t", boom, /*probe=*/false);
  }
  EXPECT_EQ(monitor.state("t"), HealthState::kClosed);

  // Fourth failure reaches min_samples at 100% error rate: quarantined.
  monitor.Record("t", boom, /*probe=*/false);
  EXPECT_EQ(monitor.state("t"), HealthState::kOpen);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kReject);
  EXPECT_EQ(monitor.stats("t").quarantines, 1);
}

TEST(HealthMonitorTest, HealthyTrafficKeepsBreakerClosed) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  // 49% errors over plenty of samples stays under the 50% trip rate.
  for (int i = 0; i < 100; ++i) {
    monitor.Record("t", i % 2 == 0 ? Status::OK() : Status::OK(),
                   /*probe=*/false);
    monitor.Record("t", Status::OK(), /*probe=*/false);
  }
  for (int i = 0; i < 40; ++i) {
    monitor.Record("t", Status::Internal("x"), /*probe=*/false);
  }
  EXPECT_EQ(monitor.state("t"), HealthState::kClosed);
}

TEST(HealthMonitorTest, OldSamplesFallOutOfTheWindow) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  const Status boom = Status::Internal("boom");
  for (int i = 0; i < 3; ++i) monitor.Record("t", boom, /*probe=*/false);
  // The window slides past those failures; fresh mixed traffic never sees
  // the error rate again.
  clock.AdvanceMillis(2000.0);
  monitor.Record("t", boom, /*probe=*/false);
  EXPECT_EQ(monitor.state("t"), HealthState::kClosed);
  EXPECT_EQ(monitor.stats("t").window_attempts, 1);
  EXPECT_EQ(monitor.stats("t").window_failures, 1);
}

TEST(HealthMonitorTest, HalfOpenProbesRecoverTheTenant) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  const Status boom = Status::Internal("boom");
  for (int i = 0; i < 4; ++i) monitor.Record("t", boom, /*probe=*/false);
  ASSERT_EQ(monitor.state("t"), HealthState::kOpen);

  // Still cooling down: rejected.
  clock.AdvanceMillis(499.0);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kReject);

  // Cool-down over: half-open, one probe slot (probe_concurrency=1).
  clock.AdvanceMillis(2.0);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);
  EXPECT_EQ(monitor.state("t"), HealthState::kHalfOpen);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kReject);  // slot taken

  // Two successful probes (probe_recoveries=2) close the breaker.
  monitor.Record("t", Status::OK(), /*probe=*/true);
  EXPECT_EQ(monitor.state("t"), HealthState::kHalfOpen);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);
  monitor.Record("t", Status::OK(), /*probe=*/true);
  EXPECT_EQ(monitor.state("t"), HealthState::kClosed);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kAdmit);
  const auto stats = monitor.stats("t");
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.probes, 2);
}

TEST(HealthMonitorTest, ProbeFailureRequarantines) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  const Status boom = Status::Internal("boom");
  for (int i = 0; i < 4; ++i) monitor.Record("t", boom, /*probe=*/false);
  clock.AdvanceMillis(600.0);
  ASSERT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);

  // The tenant is still sick: back to open, with a fresh cool-down.
  monitor.Record("t", boom, /*probe=*/true);
  EXPECT_EQ(monitor.state("t"), HealthState::kOpen);
  EXPECT_EQ(monitor.stats("t").quarantines, 2);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kReject);
  clock.AdvanceMillis(600.0);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);
}

TEST(HealthMonitorTest, AbandonedProbeReleasesTheSlot) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  const Status boom = Status::Internal("boom");
  for (int i = 0; i < 4; ++i) monitor.Record("t", boom, /*probe=*/false);
  clock.AdvanceMillis(600.0);
  ASSERT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);
  ASSERT_EQ(monitor.Admit("t"), AdmitDecision::kReject);

  // A probe that never planned (shed / cancelled) says nothing about
  // health: the slot comes back, no sample is recorded.
  const auto before = monitor.stats("t");
  monitor.AbandonProbe("t");
  EXPECT_EQ(monitor.stats("t").window_attempts, before.window_attempts);
  EXPECT_EQ(monitor.Admit("t"), AdmitDecision::kProbe);
  EXPECT_EQ(monitor.state("t"), HealthState::kHalfOpen);
}

TEST(HealthMonitorTest, TimeoutClassificationIsConfigurable) {
  ManualClock clock;
  HealthOptions lenient = SmallWindow(&clock);
  lenient.timeouts_are_failures = false;
  HealthMonitor monitor(lenient);
  for (int i = 0; i < 8; ++i) {
    monitor.Record("t", Status::DeadlineExceeded("late"), /*probe=*/false);
  }
  EXPECT_EQ(monitor.state("t"), HealthState::kClosed);

  HealthMonitor strict(SmallWindow(&clock));
  for (int i = 0; i < 4; ++i) {
    strict.Record("t", Status::DeadlineExceeded("late"), /*probe=*/false);
  }
  EXPECT_EQ(strict.state("t"), HealthState::kOpen);
}

TEST(HealthMonitorTest, ObservedKeysNeverTransition) {
  ManualClock clock;
  HealthMonitor monitor(SmallWindow(&clock));
  for (int i = 0; i < 32; ++i) {
    monitor.RecordObserved("shard_0", Status::Internal("boom"));
  }
  EXPECT_EQ(monitor.state("shard_0"), HealthState::kClosed);
  EXPECT_EQ(monitor.stats("shard_0").window_failures, 32);
  EXPECT_EQ(monitor.stats("shard_0").quarantines, 0);
}

// ---------------------------------------------------------------------------
// RetryPolicy.

TEST(RetryPolicyTest, BackoffIsDeterministicInSeedAndAttempt) {
  RetryPolicy policy;
  policy.max_retries = 3;
  const double a1 = policy.BackoffMs(1, 42);
  EXPECT_DOUBLE_EQ(a1, policy.BackoffMs(1, 42));
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2, 42), policy.BackoffMs(2, 42));
  EXPECT_NE(a1, policy.BackoffMs(1, 43));  // different seed, different jitter

  // Jitter stays inside +-jitter_frac of the exponential base, which is
  // capped at max_backoff_ms.
  for (int attempt = 1; attempt <= 8; ++attempt) {
    double base = policy.backoff_base_ms;
    for (int i = 1; i < attempt; ++i) base *= policy.backoff_multiplier;
    base = std::min(base, policy.max_backoff_ms);
    const double b = policy.BackoffMs(attempt, 7);
    EXPECT_GE(b, base * (1.0 - policy.jitter_frac));
    EXPECT_LE(b, base * (1.0 + policy.jitter_frac));
  }
}

TEST(RetryPolicyTest, ClassifiesRetryableFailuresAndCapsAttempts) {
  RetryPolicy off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.ShouldRetry(Status::Unavailable("x"), 1));

  RetryPolicy policy;
  policy.max_retries = 2;
  EXPECT_TRUE(policy.ShouldRetry(Status::Unavailable("x"), 1));
  EXPECT_TRUE(policy.ShouldRetry(Status::ResourceExhausted("x"), 2));
  EXPECT_FALSE(policy.ShouldRetry(Status::ResourceExhausted("x"), 3));
  EXPECT_FALSE(policy.ShouldRetry(Status::InvalidArgument("x"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::Aborted("cancelled"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 1));
}

TEST(RetryPolicyTest, BudgetGateRespectsTheDeadline) {
  EXPECT_TRUE(RetryPolicy::FitsBudget(10.0, 5.0, 0.0));  // no deadline
  EXPECT_TRUE(RetryPolicy::FitsBudget(10.0, 5.0, 50.0));
  EXPECT_FALSE(RetryPolicy::FitsBudget(10.0, 45.0, 50.0));
  EXPECT_FALSE(RetryPolicy::FitsBudget(60.0, 0.0, 50.0));
}

// ---------------------------------------------------------------------------
// Serving stack: retries, quarantine, cancellation.

class ResilienceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
    };
    for (const char* sql : sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 4;
    Rng drng(2);
    auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value();
    model_ = new core::QpSeeker(*db_, *stats_,
                                core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
    core::TrainOptions topts;
    topts.epochs = 4;
    model_->Train(ds, topts);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete baseline_;
    delete stats_;
    delete db_;
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  static query::Query ThreeWay() {
    return query::ParseSql(
               "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
               *db_)
        .value();
  }

  /// Rollout-capped MCTS, never wall-clock bound: retries replay the same
  /// search for the same seed.
  static core::GuardedOptions Gopts() {
    core::GuardedOptions gopts;
    gopts.hybrid.neural_min_relations = 3;
    gopts.hybrid.mcts.time_budget_ms = 1e9;
    gopts.hybrid.mcts.max_rollouts = 24;
    gopts.hybrid.mcts.eval_batch = 4;
    gopts.hybrid.mcts.seed = 5;
    return gopts;
  }

  static PlanServiceDeps Deps(const std::string& backend) {
    PlanServiceDeps deps;
    deps.planner_name = backend;
    deps.model = std::shared_ptr<const core::QpSeeker>(
        std::shared_ptr<const core::QpSeeker>(), model_);
    deps.baseline = baseline_;
    deps.guard_options = Gopts();
    return deps;
  }

  static PlanRequest Req(query::Query q, uint64_t seed = 0) {
    PlanRequest request;
    request.query = std::move(q);
    request.seed = seed;
    return request;
  }

  static TenantSpec Spec(const std::string& id,
                         const std::string& backend = "baseline") {
    TenantSpec spec;
    spec.tenant_id = id;
    spec.deps = Deps(backend);
    return spec;
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static core::QpSeeker* model_;
};

storage::Database* ResilienceTest::db_ = nullptr;
stats::DatabaseStats* ResilienceTest::stats_ = nullptr;
optimizer::Planner* ResilienceTest::baseline_ = nullptr;
core::QpSeeker* ResilienceTest::model_ = nullptr;

TEST_F(ResilienceTest, RetriedPlanIsByteIdenticalToUnfaultedPlan) {
  const query::Query query = ThreeWay();
  constexpr uint64_t kSeed = 777;

  // Reference: no faults, one shot.
  std::string reference;
  {
    ShardedPlanServiceOptions opts;
    opts.workers_per_shard = 1;
    auto service = OneTenant::Make(Deps("neural"), opts);
    auto result = service->Submit(Req(query, kSeed)).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference = result->plan->ToString(*db_, query);
  }

  // Chaos run: the first planning attempt dies on an injected transient;
  // the retry replans with the same seed and must reproduce the reference
  // plan bit for bit.
  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.message = "injected transient";
  spec.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base_ms = 0.1;  // keep the test fast
  auto service = OneTenant::Make(Deps("neural"), opts);
  auto result = service->Submit(Req(query, kSeed)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan->ToString(*db_, query), reference);
  EXPECT_GE(fault::FaultInjector::Global().Triggers("mcts.rollout"), 1);

  const auto stats = service->stats();
  EXPECT_EQ(stats.retry_attempts, 1);
  EXPECT_EQ(stats.retry_successes, 1);
  EXPECT_EQ(stats.retry_exhausted, 0);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST_F(ResilienceTest, RetriesExhaustOnStickyFaults) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  opts.retry.max_retries = 1;
  opts.retry.backoff_base_ms = 0.1;
  auto service = OneTenant::Make(Deps("neural"), opts);
  auto result = service->Submit(Req(ThreeWay(), 9)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(result.status().reason(), "fault_injected");

  const auto stats = service->stats();
  EXPECT_EQ(stats.retry_attempts, 1);
  EXPECT_EQ(stats.retry_exhausted, 1);
  EXPECT_EQ(stats.retry_successes, 0);
  EXPECT_EQ(stats.errors, 1);
}

// A retry waits on the shard pool's delayed queue, not on a worker: on a
// one-worker shard, a second tenant's request is served while the first
// tenant's request waits out its backoff.
TEST_F(ResilienceTest, RetryBackoffDoesNotHoldTheWorker) {
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 1;
  opts.retry.max_retries = 1;
  opts.retry.backoff_base_ms = 200.0;
  opts.retry.jitter_frac = 0.0;
  auto service = ShardedPlanService::Create(opts).value();
  ASSERT_TRUE(service->AddTenant(Spec("backing_off", "neural")).ok());
  ASSERT_TRUE(service->AddTenant(Spec("bystander", "neural")).ok());

  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.trigger_on_hit = 1;
  spec.only_context = "backing_off";
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  PlanRequest first = Req(ThreeWay(), 7);
  first.tenant_id = "backing_off";
  auto backing_off = service->Submit(std::move(first));
  while (fault::FaultInjector::Global().Triggers("mcts.rollout") == 0) {
    std::this_thread::yield();
  }
  PlanRequest second = Req(ThreeWay(), 8);
  second.tenant_id = "bystander";
  auto bystander = service->Submit(std::move(second)).get();
  ASSERT_TRUE(bystander.ok()) << bystander.status().ToString();
  EXPECT_EQ(backing_off.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the bystander waited behind the retry's backoff";
  auto retried = backing_off.get();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(service->TenantStats("backing_off")->retry_successes, 1);
}

// A retried attempt plans under what is left of the request deadline, not
// under the whole deadline again: the first attempt stalls 80 ms of a 100 ms
// deadline and then fails, so the deadline-bound retry has ~20 ms left.
// Planning the retry under the full deadline resolves after ~180 ms.
TEST_F(ResilienceTest, RetryPlansUnderTheRemainingDeadline) {
  PlanServiceDeps deps = Deps("neural");
  deps.guard_options.hybrid.mcts.max_rollouts = 1000000;  // deadline-bound
  fault::FaultSpec spec;
  spec.code = StatusCode::kIOError;
  spec.trigger_on_hit = 1;
  spec.latency_ms = 80.0;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  opts.retry.max_retries = 1;
  opts.retry.backoff_base_ms = 0.1;
  auto service = OneTenant::Make(deps, opts);
  PlanRequest request = Req(ThreeWay(), 11);
  request.deadline_ms = 100.0;
  const auto start = std::chrono::steady_clock::now();
  auto result = service->Submit(std::move(request)).get();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deadline_hit);
  EXPECT_EQ(service->stats().retry_successes, 1);
  EXPECT_LT(elapsed_ms, 140.0) << "the retry planned under the whole deadline";
}

TEST_F(ResilienceTest, TerminalFailuresAreNotRetried) {
  fault::FaultSpec spec;
  spec.code = StatusCode::kInvalidArgument;  // terminal
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("serve.submit", spec);

  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  opts.retry.max_retries = 3;
  auto service = OneTenant::Make(Deps("baseline"), opts);
  auto result = service->Submit(Req(ThreeWay(), 1)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service->stats().retry_attempts, 0);
}

TEST_F(ResilienceTest, CancelledRequestResolvesPromptlyWithAborted) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  auto service = OneTenant::Make(Deps("neural"), opts);

  // Pre-cancelled: the planner observes the token at its first boundary
  // and the future resolves kAborted without planning.
  PlanRequest request = Req(ThreeWay(), 3);
  request.cancel = std::make_shared<util::CancelToken>();
  request.cancel->Cancel();
  auto result = service->Submit(std::move(request)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
  EXPECT_EQ(result.status().reason(), "cancelled");
}

TEST_F(ResilienceTest, MidFlightCancellationNeverHangs) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 2;
  auto service = OneTenant::Make(Deps("neural"), opts);

  // Race cancellation against planning: every future must resolve, each
  // to a plan (cancel lost the race) or kAborted (cancel won) — never a
  // hang, never another error.
  std::vector<std::shared_ptr<util::CancelToken>> tokens;
  std::vector<std::future<StatusOr<core::PlanResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    PlanRequest request = Req(ThreeWay(), 100 + static_cast<uint64_t>(i));
    request.cancel = std::make_shared<util::CancelToken>();
    tokens.push_back(request.cancel);
    futures.push_back(service->Submit(std::move(request)));
    if (i % 2 == 1) tokens.back()->Cancel();
  }
  for (auto& token : tokens) token->Cancel();
  for (auto& future : futures) {
    auto result = future.get();
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
      EXPECT_EQ(result.status().reason(), "cancelled");
    }
  }
}

TEST_F(ResilienceTest, QuarantineTripsAndRecoversThroughProbes) {
  ManualClock health_clock;
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 2;
  opts.health = SmallWindow(&health_clock);
  auto service = ShardedPlanService::Create(opts).value();
  ASSERT_TRUE(service->AddTenant(Spec("sick")).ok());

  // Chaos: every submission from this tenant dies at serve.submit.
  fault::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  spec.only_context = "sick";
  fault::FaultInjector::Global().Arm("serve.submit", spec);

  PlanRequest request = Req(ThreeWay(), 1);
  request.tenant_id = "sick";
  for (int i = 0; i < 4; ++i) {
    auto result = service->Submit(request).get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().reason(), "fault_injected");
  }
  ASSERT_EQ(service->TenantHealth("sick")->state, HealthState::kOpen);
  EXPECT_EQ(service->TenantHealth("sick")->quarantines, 1);

  // While quarantined (no degrade quota): fast-fail kUnavailable with the
  // machine-readable cause, without consuming the fault point.
  auto rejected = service->Submit(request).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable());
  EXPECT_EQ(rejected.status().reason(), "quarantined");

  // Disarm the chaos and let the cool-down pass: probe traffic flows and
  // recovers the tenant (probe_recoveries = 2).
  fault::FaultInjector::Global().DisarmAll();
  health_clock.AdvanceMillis(600.0);
  for (int i = 0; i < 2; ++i) {
    auto probe = service->Submit(request).get();
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  }
  EXPECT_EQ(service->TenantHealth("sick")->state, HealthState::kClosed);
  EXPECT_EQ(service->TenantHealth("sick")->recoveries, 1);

  // Recovered: normal traffic again.
  auto after = service->Submit(request).get();
  EXPECT_TRUE(after.ok());
}

TEST_F(ResilienceTest, QuarantinedTenantDegradesWhenQuotaAllows) {
  ManualClock health_clock;
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 2;
  opts.health = SmallWindow(&health_clock);
  auto service = ShardedPlanService::Create(opts).value();
  TenantSpec spec = Spec("degrader");
  spec.quota.shed_to_baseline = true;
  ASSERT_TRUE(service->AddTenant(std::move(spec)).ok());

  fault::FaultSpec fspec;
  fspec.code = StatusCode::kInternal;
  fspec.trigger_on_hit = 1;
  fspec.sticky = true;
  fspec.only_context = "degrader";
  fault::FaultInjector::Global().Arm("serve.submit", fspec);

  PlanRequest request = Req(ThreeWay(), 1);
  request.tenant_id = "degrader";
  for (int i = 0; i < 4; ++i) (void)service->Submit(request).get();
  ASSERT_EQ(service->TenantHealth("degrader")->state, HealthState::kOpen);

  // Quarantined but degradable: served inline by the DP baseline, off the
  // shard pool, with the cause recorded on the plan.
  auto degraded = service->Submit(request).get();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->stage, core::PlanStage::kTraditional);
  EXPECT_NE(degraded->fallback_reason.find("quarantined"), std::string::npos);
}

TEST_F(ResilienceTest, AdmissionRetryAbsorbsTransientSubmitFaults) {
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base_ms = 0.1;
  auto service = ShardedPlanService::Create(opts).value();
  ASSERT_TRUE(service->AddTenant(Spec("flaky")).ok());

  // One transient failure at serve.submit; the retry re-admits.
  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger_on_hit = 1;
  spec.only_context = "flaky";
  fault::FaultInjector::Global().Arm("serve.submit", spec);

  PlanRequest request = Req(ThreeWay(), 4);
  request.tenant_id = "flaky";
  auto result = service->Submit(request).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(fault::FaultInjector::Global().Triggers("serve.submit"), 1);
}

TEST_F(ResilienceTest, AdmissionRetryExhaustionIsCounted) {
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 2;
  opts.retry.max_retries = 2;
  opts.retry.backoff_base_ms = 0.1;
  auto service = ShardedPlanService::Create(opts).value();
  ASSERT_TRUE(service->AddTenant(Spec("stuck")).ok());

  // serve.submit fails every attempt: admission is retried twice, then
  // runs out of attempts — which counts as exhaustion, exactly as a
  // planning retry counts it.
  fault::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  spec.only_context = "stuck";
  fault::FaultInjector::Global().Arm("serve.submit", spec);

  auto& reg = metrics::Registry::Global();
  metrics::Counter* attempts = reg.GetCounter("qps.serve.retries.attempts");
  metrics::Counter* exhausted = reg.GetCounter("qps.serve.retries.exhausted");
  const int64_t attempts_before = attempts->value();
  const int64_t exhausted_before = exhausted->value();

  PlanRequest request = Req(ThreeWay(), 4);
  request.tenant_id = "stuck";
  auto result = service->Submit(request).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault::FaultInjector::Global().Triggers("serve.submit"), 3);
  EXPECT_EQ(attempts->value() - attempts_before, 2);
  EXPECT_EQ(exhausted->value() - exhausted_before, 1);
}

TEST_F(ResilienceTest, CancelledOutcomesDoNotPolluteTheBreaker) {
  ShardedPlanServiceOptions opts;
  opts.shards = 1;
  opts.workers_per_shard = 2;
  auto service = ShardedPlanService::Create(opts).value();
  ASSERT_TRUE(service->AddTenant(Spec("calm")).ok());

  for (int i = 0; i < 8; ++i) {
    PlanRequest request = Req(ThreeWay(), 1);
    request.tenant_id = "calm";
    request.cancel = std::make_shared<util::CancelToken>();
    request.cancel->Cancel();
    auto result = service->Submit(std::move(request)).get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().reason(), "cancelled");
  }
  // Cancellation is caller-driven, not model health: no samples, no trip.
  const auto health = service->TenantHealth("calm").value();
  EXPECT_EQ(health.state, HealthState::kClosed);
  EXPECT_EQ(health.window_attempts, 0);
  EXPECT_EQ(health.quarantines, 0);
}

}  // namespace
}  // namespace serve
}  // namespace qps
