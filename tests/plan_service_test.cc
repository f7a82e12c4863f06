// Copyright 2026 The QPSeeker Authors
//
// Stress and contract tests for the concurrent planning service: N
// simultaneous submits all complete, concurrent plans are bit-identical to
// serial planning for fixed seeds (the cross-query batching determinism
// contract), blown deadlines return best-so-far plans, a full admission
// queue sheds (or degrades to the inline baseline), the rendezvous
// actually fuses evaluations from different in-flight queries, the
// workers share one planner (and so one breaker) per (tenant, model), and
// a model swap neither waits for nor loses the work in flight.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "one_tenant.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/clock.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace qps {
namespace serve {
namespace {

class PlanServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
        "SELECT COUNT(*) FROM a WHERE a.a2 >= 2;",
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
    topts.epochs = 6;
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
  static query::Query TwoWay() {
    return query::ParseSql(
               "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 7;", *db_)
        .value();
  }

  /// Rollout-capped MCTS: planning is decided by (seed, eval_batch), never
  /// by wall time, so serial and concurrent runs are comparable bit for bit.
  static core::GuardedOptions Gopts() {
    core::GuardedOptions gopts;
    gopts.hybrid.neural_min_relations = 3;
    gopts.hybrid.mcts.time_budget_ms = 1e9;
    gopts.hybrid.mcts.max_rollouts = 24;
    gopts.hybrid.mcts.eval_batch = 4;
    gopts.hybrid.mcts.seed = 5;
    return gopts;
  }

  /// Deps over the suite fixtures; the model is a non-owning alias (the
  /// suite owns it), exactly how embedding callers adapt raw pointers.
  static PlanServiceDeps Deps(const std::string& backend) {
    PlanServiceDeps deps;
    deps.planner_name = backend;
    deps.model = std::shared_ptr<const core::QpSeeker>(
        std::shared_ptr<const core::QpSeeker>(), model_);
    deps.baseline = baseline_;
    deps.guard_options = Gopts();
    return deps;
  }

  static std::unique_ptr<OneTenant> MakeService(
      const std::string& backend, ShardedPlanServiceOptions opts,
      TenantQuota quota = {32, false}) {
    return OneTenant::Make(Deps(backend), std::move(opts), quota);
  }

  /// PlanRequest shorthand for the common (query, seed) submissions.
  static PlanRequest Req(query::Query q, uint64_t seed = 0) {
    PlanRequest request;
    request.query = std::move(q);
    request.seed = seed;
    return request;
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static core::QpSeeker* model_;
};

storage::Database* PlanServiceTest::db_ = nullptr;
stats::DatabaseStats* PlanServiceTest::stats_ = nullptr;
optimizer::Planner* PlanServiceTest::baseline_ = nullptr;
core::QpSeeker* PlanServiceTest::model_ = nullptr;

TEST_F(PlanServiceTest, ConcurrentSubmitsAllCompleteWithValidPlans) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 4;
  auto service = MakeService("neural", opts);

  constexpr int kRequests = 16;
  std::vector<query::Query> queries;
  std::vector<std::future<StatusOr<core::PlanResult>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    queries.push_back(i % 2 == 0 ? ThreeWay() : TwoWay());
    futures.push_back(service->Submit(
        Req(queries[static_cast<size_t>(i)], 100 + static_cast<uint64_t>(i))));
  }
  for (int i = 0; i < kRequests; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << "request " << i << ": "
                             << result.status().ToString();
    ASSERT_NE(result->plan, nullptr);
    EXPECT_TRUE(
        query::ValidatePlan(queries[static_cast<size_t>(i)], *result->plan).ok())
        << "request " << i;
    EXPECT_TRUE(result->used_neural);
    EXPECT_GT(result->plans_evaluated, 0);
  }

  const auto stats = service->stats();
  EXPECT_EQ(stats.submitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(service->inflight(), 0);
  EXPECT_EQ(service->queue_depth(), 0u);
}

TEST_F(PlanServiceTest, ConcurrentPlansAreBitIdenticalToSerialPlanning) {
  // Serial reference: one planner instance, requests planned one at a time
  // with the model called directly (no rendezvous, no batching).
  constexpr int kRequests = 12;
  std::vector<query::Query> queries;
  std::vector<std::string> serial_plans;
  std::vector<double> serial_runtimes;
  std::vector<int> serial_evals;
  auto reference =
      core::MakePlanner("neural", model_, baseline_, Gopts()).value();
  for (int i = 0; i < kRequests; ++i) {
    queries.push_back(i % 2 == 0 ? ThreeWay() : TwoWay());
    core::PlanRequestOptions ropts;
    ropts.seed = 500 + static_cast<uint64_t>(i);
    auto result = reference->Plan(queries[static_cast<size_t>(i)], ropts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    serial_plans.push_back(
        result->plan->ToString(*db_, queries[static_cast<size_t>(i)]));
    serial_runtimes.push_back(result->node_stats.runtime_ms);
    serial_evals.push_back(result->plans_evaluated);
  }

  // Concurrent run: same (query, seed) pairs submitted at once on 4
  // workers; their model evaluations fuse in the rendezvous with whatever
  // else is in flight. The plans must not change in any bit.
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 4;
  auto service = MakeService("neural", opts);
  std::vector<std::future<StatusOr<core::PlanResult>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service->Submit(
        Req(queries[static_cast<size_t>(i)], 500 + static_cast<uint64_t>(i))));
  }
  for (int i = 0; i < kRequests; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan->ToString(*db_, queries[static_cast<size_t>(i)]),
              serial_plans[static_cast<size_t>(i)])
        << "request " << i
        << ": concurrent plan differs from serial planning";
    EXPECT_EQ(result->node_stats.runtime_ms,
              serial_runtimes[static_cast<size_t>(i)])
        << "request " << i;
    EXPECT_EQ(result->plans_evaluated, serial_evals[static_cast<size_t>(i)])
        << "request " << i;
  }
}

TEST_F(PlanServiceTest, ExpiredDeadlineReturnsBestSoFarPlan) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 2;
  auto service = MakeService("neural", opts);

  constexpr int kRequests = 6;
  std::vector<query::Query> queries;
  std::vector<std::future<StatusOr<core::PlanResult>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    queries.push_back(ThreeWay());
    PlanRequest request =
        Req(queries[static_cast<size_t>(i)], 40 + static_cast<uint64_t>(i));
    request.deadline_ms = 1e-3;  // expires before the first batch finishes
    futures.push_back(service->Submit(std::move(request)));
  }
  for (int i = 0; i < kRequests; ++i) {
    auto result = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->plan, nullptr);
    EXPECT_TRUE(
        query::ValidatePlan(queries[static_cast<size_t>(i)], *result->plan).ok());
    EXPECT_TRUE(result->deadline_hit) << "request " << i;
    EXPECT_GT(result->plans_evaluated, 0) << "request " << i;
  }
  EXPECT_EQ(service->stats().deadline_hits, kRequests);
}

TEST_F(PlanServiceTest, DefaultDeadlineFromOptionsApplies) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  opts.default_deadline_ms = 1e-3;
  auto service = MakeService("neural", opts);
  auto result = service->Submit(Req(ThreeWay())).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->deadline_hit);
}

TEST_F(PlanServiceTest, FailOnDeadlinePropagatesDeadlineExceeded) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  auto service = MakeService("neural", opts);
  PlanRequest request = Req(ThreeWay());
  request.deadline_ms = 1e-3;
  request.fail_on_deadline = true;
  auto result = service->Submit(std::move(request)).get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(service->stats().errors, 1);
}

TEST_F(PlanServiceTest, FullQueueShedsWithResourceExhausted) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  TenantQuota quota;
  quota.max_pending = 1;  // one request may wait behind the running one
  auto service = MakeService("neural", opts, quota);

  // Stall the first request's opening rollout so it occupies the worker
  // while the rest arrive.
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 300.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  auto first = service->Submit(Req(ThreeWay()));
  // Wait until the worker claims it (and parks in the stalled rollout), so
  // the next submit deterministically fills the queue slot.
  while (service->queue_depth() != 0) std::this_thread::yield();
  auto second = service->Submit(Req(ThreeWay()));
  ASSERT_EQ(service->queue_depth(), 1u);

  std::vector<std::future<StatusOr<core::PlanResult>>> rejected;
  for (int i = 0; i < 4; ++i) {
    rejected.push_back(service->Submit(Req(ThreeWay())));
  }

  for (auto& f : rejected) {
    auto result = f.get();
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
  }
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  const auto stats = service->stats();
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.shed_degraded, 0);
  EXPECT_EQ(stats.completed, 2);
}

TEST_F(PlanServiceTest, ShedToBaselineDegradesInsteadOfRejecting) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  TenantQuota quota;
  quota.max_pending = 1;
  quota.shed_to_baseline = true;
  auto service = MakeService("neural", opts, quota);

  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 300.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  const query::Query q = ThreeWay();
  auto first = service->Submit(Req(q));
  while (service->queue_depth() != 0) std::this_thread::yield();
  auto second = service->Submit(Req(q));
  std::vector<std::future<StatusOr<core::PlanResult>>> degraded;
  for (int i = 0; i < 4; ++i) degraded.push_back(service->Submit(Req(q)));

  for (auto& f : degraded) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stage, core::PlanStage::kTraditional);
    EXPECT_FALSE(result->used_neural);
    EXPECT_NE(result->fallback_reason.find("shed"), std::string::npos);
    EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());
  }
  ASSERT_TRUE(first.get().ok());
  ASSERT_TRUE(second.get().ok());
  const auto stats = service->stats();
  EXPECT_EQ(stats.shed, 4);
  EXPECT_EQ(stats.shed_degraded, 4);
}

TEST_F(PlanServiceTest, GuardStatsCountEveryRequestAcrossWorkers) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 4;
  auto service = MakeService("guarded", opts);

  constexpr int kRequests = 8;
  std::vector<std::future<StatusOr<core::PlanResult>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        service->Submit(Req(ThreeWay(), 10 + static_cast<uint64_t>(i))));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  // Four workers plan concurrently on the one shared planner; its counts
  // are exact.
  const core::GuardStats stats = service->guard_stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.neural_attempts, kRequests);
  EXPECT_EQ(stats.neural_success, kRequests);
}

TEST_F(PlanServiceTest, WorkerLaddersShareOneBreaker) {
  // The breaker is per (tenant, model), not per worker: a 4-worker service
  // whose MCTS keeps failing trips after min_samples requests in total,
  // where per-worker breakers would each see only a quarter of them.
  const core::HealthOptions breaker;  // ladder breakers run on the defaults
  ManualClock clock;
  PlanServiceDeps deps = Deps("guarded");
  deps.guard_options.clock = &clock;
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 4;
  auto service = OneTenant::Make(std::move(deps), opts, {32, false}, "acme");

  fault::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  // Sequential requests land on any of the four workers; greedy saves
  // every one of them.
  for (int i = 0; i < breaker.min_samples; ++i) {
    auto result = service->Submit(Req(ThreeWay(), 30 + i)).get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stage, core::PlanStage::kGreedy) << "request " << i;
  }
  core::GuardStats stats = service->guard_stats();
  EXPECT_EQ(stats.neural_attempts, breaker.min_samples);
  EXPECT_EQ(stats.circuit_opens, 1) << "one shared breaker, counted once";
  // The ladder key carries the tenant id.
  EXPECT_EQ(metrics::Registry::Global()
                .GetGauge("qps.health.state.neural_acme")
                ->value(),
            static_cast<double>(core::HealthState::kOpen));

  auto shed = service->Submit(Req(ThreeWay(), 99)).get();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->stage, core::PlanStage::kTraditional);
  EXPECT_EQ(shed->fallback_reason, "circuit open");

  // Half-open probes from any worker recover the same breaker.
  clock.SetMillis(breaker.open_ms + 1.0);
  fault::FaultInjector::Global().DisarmAll();
  for (int i = 0; i < breaker.probe_recoveries; ++i) {
    auto probe = service->Submit(Req(ThreeWay(), 60 + i)).get();
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_EQ(probe->stage, core::PlanStage::kNeural);
  }
  stats = service->guard_stats();
  EXPECT_EQ(stats.circuit_opens, 1);
  EXPECT_EQ(stats.circuit_closes, 1);
  EXPECT_EQ(stats.circuit_short_circuits, 1);
}

TEST_F(PlanServiceTest, SwapModelStartsTheBreakerClosed) {
  const core::HealthOptions breaker;
  ManualClock clock;
  PlanServiceDeps deps = Deps("guarded");
  deps.guard_options.clock = &clock;
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 2;
  auto service = OneTenant::Make(std::move(deps), opts);

  fault::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);
  for (int i = 0; i < breaker.min_samples; ++i) {
    ASSERT_TRUE(service->Submit(Req(ThreeWay(), 30 + i)).get().ok());
  }
  ASSERT_EQ(service->guard_stats().circuit_opens, 1);

  // The new model gets a fresh breaker: its neural rung is tried again
  // (and, with the fault still armed, greedy saves the request).
  ASSERT_TRUE(service
                  ->SwapModel(std::shared_ptr<const core::QpSeeker>(
                      std::shared_ptr<const core::QpSeeker>(), model_))
                  .ok());
  auto result = service->Submit(Req(ThreeWay(), 50)).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, core::PlanStage::kGreedy);
  EXPECT_EQ(service->guard_stats().circuit_opens, 0);
  EXPECT_EQ(service->guard_stats().circuit_short_circuits, 0);
}

TEST_F(PlanServiceTest, CreateRejectsUnknownBackendAndBadShedConfig) {
  auto sharded = ShardedPlanService::Create({}).value();
  TenantSpec unknown_spec;
  unknown_spec.tenant_id = "unknown";
  unknown_spec.deps = Deps("quantum");
  auto unknown = sharded->AddTenant(std::move(unknown_spec));
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.code() == StatusCode::kInvalidArgument);

  TenantSpec no_baseline_spec;
  no_baseline_spec.tenant_id = "no_baseline";
  no_baseline_spec.quota.shed_to_baseline = true;
  no_baseline_spec.deps = Deps("neural");
  no_baseline_spec.deps.baseline = nullptr;
  auto no_baseline = sharded->AddTenant(std::move(no_baseline_spec));
  ASSERT_FALSE(no_baseline.ok());
  EXPECT_TRUE(no_baseline.code() == StatusCode::kInvalidArgument);
}

TEST_F(PlanServiceTest, RendezvousFusesConcurrentEvaluations) {
  // Four threads evaluate four different candidate sets; with the expected
  // in-flight count at 4 and a generous flush timeout, all of them must
  // ride one fused flush — and receive exactly what a direct
  // PredictPlansBatch call would have produced.
  BatchRendezvousOptions opts;
  opts.max_batch = 8;
  opts.flush_timeout_ms = 2000.0;
  obs::OwnedHistogram batch_size("qps.serve.batch_size");
  obs::OwnedHistogram batch_plans("qps.serve.batch_plans");
  BatchRendezvous rendezvous(model_, opts, &batch_size, &batch_plans);
  rendezvous.SetExpected(4);

  std::vector<query::Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(i % 2 == 0 ? ThreeWay() : TwoWay());
  }
  std::vector<query::PlanPtr> plans;
  std::vector<std::vector<const query::PlanNode*>> candidates(4);
  for (int i = 0; i < 4; ++i) {
    auto plan = baseline_->Plan(queries[static_cast<size_t>(i)]);
    ASSERT_TRUE(plan.ok());
    plans.push_back(std::move(plan).value());
    candidates[static_cast<size_t>(i)].push_back(plans.back().get());
  }

  std::vector<std::vector<query::NodeStats>> fused(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      fused[static_cast<size_t>(i)] = rendezvous.Evaluate(
          queries[static_cast<size_t>(i)], candidates[static_cast<size_t>(i)]);
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = BatchRendezvous::Stats::Of(batch_size, batch_plans);
  EXPECT_EQ(stats.flushes, 1);
  EXPECT_EQ(stats.fused_queries, 4);
  EXPECT_EQ(stats.max_fused, 4);
  EXPECT_EQ(stats.fused_plans, 4);

  for (int i = 0; i < 4; ++i) {
    const auto direct = model_->PredictPlansBatch(
        queries[static_cast<size_t>(i)], candidates[static_cast<size_t>(i)]);
    ASSERT_EQ(fused[static_cast<size_t>(i)].size(), direct.size());
    for (size_t p = 0; p < direct.size(); ++p) {
      EXPECT_EQ(fused[static_cast<size_t>(i)][p].runtime_ms, direct[p].runtime_ms);
      EXPECT_EQ(fused[static_cast<size_t>(i)][p].cardinality, direct[p].cardinality);
      EXPECT_EQ(fused[static_cast<size_t>(i)][p].cost, direct[p].cost);
    }
  }
}

// stats() must hand back a sane snapshot while SwapModel retires
// generations, whose rendezvous all record into the service's one set of
// batching counters. Under TSan this also shakes out any unlocked access
// on the swap path itself.
TEST_F(PlanServiceTest, StatsSnapshotStaysCoherentAcrossSwapModel) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 2;
  opts.max_batch = 4;
  auto service = MakeService("neural", opts);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto stats = service->stats();
        // Deliveries never outrun admissions in a coherent snapshot.
        EXPECT_LE(stats.completed + stats.errors + stats.deadline_hits,
                  stats.submitted);
        EXPECT_GE(stats.batching.fused_queries, 0);
        std::this_thread::yield();
      }
    });
  }

  auto model = std::shared_ptr<const core::QpSeeker>(
      std::shared_ptr<const core::QpSeeker>(), model_);
  constexpr int kRounds = 6;
  constexpr int kPerRound = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<StatusOr<core::PlanResult>>> futures;
    for (int i = 0; i < kPerRound; ++i) {
      futures.push_back(service->Submit(
          Req(ThreeWay(), 70 + static_cast<uint64_t>(round * kPerRound + i))));
    }
    ASSERT_TRUE(service->SwapModel(model).ok());
    for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const auto stats = service->stats();
  EXPECT_EQ(stats.submitted, kRounds * kPerRound);
  EXPECT_EQ(stats.completed, kRounds * kPerRound);
  // Every rendezvous flush survived retirement into the merged view.
  EXPECT_GE(stats.batching.fused_queries, 0);
}

// A request in flight across SwapModel: the swap returns without waiting
// for it, the request finishes on the generation it started with, and its
// flushes appear in stats().batching exactly once. One worker and a lone
// request make every model evaluation its own flush, so an unswapped
// service planning the same (query, seed) gives the expected count.
TEST_F(PlanServiceTest, SwapModelCountsInFlightFlushesExactlyOnce) {
  ShardedPlanServiceOptions opts;
  opts.workers_per_shard = 1;
  int64_t expected_flushes = 0;
  {
    auto reference = MakeService("neural", opts);
    ASSERT_TRUE(reference->Submit(Req(ThreeWay(), 81)).get().ok());
    expected_flushes = reference->stats().batching.flushes;
  }
  ASSERT_GT(expected_flushes, 0);

  auto service = MakeService("neural", opts);
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 300.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);
  auto in_flight = service->Submit(Req(ThreeWay(), 81));
  while (service->inflight() == 0) std::this_thread::yield();

  ASSERT_TRUE(service
                  ->SwapModel(std::shared_ptr<const core::QpSeeker>(
                      std::shared_ptr<const core::QpSeeker>(), model_))
                  .ok());
  EXPECT_EQ(in_flight.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "SwapModel waited for the request in flight";
  ASSERT_TRUE(in_flight.get().ok());
  EXPECT_EQ(service->stats().batching.flushes, expected_flushes);
  EXPECT_EQ(service->stats().batching.fused_queries, expected_flushes);

  // The next request plans on the new generation; both are counted.
  ASSERT_TRUE(service->Submit(Req(ThreeWay(), 81)).get().ok());
  EXPECT_EQ(service->stats().batching.flushes, 2 * expected_flushes);
}

}  // namespace
}  // namespace serve
}  // namespace qps
