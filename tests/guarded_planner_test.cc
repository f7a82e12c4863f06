// Copyright 2026 The QPSeeker Authors
//
// Fault-injection suite for the ladder planner. Every rung of the
// degradation ladder (neural MCTS -> greedy -> traditional DP) is triggered
// deterministically through armed fault points, and the breaker's
// open/short-circuit/half-open/close cycle runs against an injected fake
// clock. With everything disarmed, GuardedPlanner must be byte-identical
// to MctsPlan on complex queries and to the DP planner on simple ones.

#include <gtest/gtest.h>

#include <cmath>

#include "core/guarded_planner.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/fault.h"

namespace qps {
namespace core {
namespace {

class GuardedPlannerTest : public ::testing::Test {
 protected:
  // One trained model for the whole suite: training dominates runtime and
  // the guards only need a model that scores plans, not a good one.
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
    model_ = new QpSeeker(*db_, *stats_, QpSeekerConfig::ForScale(Scale::kSmoke), 3);
    TrainOptions topts;
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

  static query::Query Complex() {
    return query::ParseSql(
               "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
               *db_)
        .value();
  }
  static query::Query Simple() {
    return query::ParseSql("SELECT COUNT(*) FROM a WHERE a.a2 = 2;", *db_).value();
  }

  /// Deterministic options: rollout-capped MCTS, 3+ relations go neural.
  static GuardedOptions Opts() {
    GuardedOptions opts;
    opts.hybrid.neural_min_relations = 3;
    opts.hybrid.mcts.time_budget_ms = 1e9;
    opts.hybrid.mcts.max_rollouts = 40;
    opts.hybrid.mcts.seed = 5;
    return opts;
  }

  static void ArmSticky(const std::string& point, StatusCode code,
                        const std::string& msg = "injected fault") {
    fault::FaultSpec spec;
    spec.code = code;
    spec.message = msg;
    spec.trigger_on_hit = 1;
    spec.sticky = true;
    fault::FaultInjector::Global().Arm(point, spec);
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static QpSeeker* model_;
};

storage::Database* GuardedPlannerTest::db_ = nullptr;
stats::DatabaseStats* GuardedPlannerTest::stats_ = nullptr;
optimizer::Planner* GuardedPlannerTest::baseline_ = nullptr;
QpSeeker* GuardedPlannerTest::model_ = nullptr;

TEST_F(GuardedPlannerTest, DisarmedMatchesMctsAndDpPlanners) {
  GuardedOptions gopts = Opts();
  GuardedPlanner guarded(model_, baseline_, gopts);

  // Complex query: the neural rung, byte-identical to plain MctsPlan with
  // the same options and seed.
  const query::Query complex = Complex();
  auto g = guarded.Plan(complex, {});
  auto m = MctsPlan(*model_, complex, gopts.hybrid.mcts);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(g->stage, PlanStage::kNeural);
  EXPECT_TRUE(g->used_neural);
  EXPECT_EQ(g->plans_evaluated, m->plans_evaluated);
  EXPECT_EQ(g->node_stats.runtime_ms, m->predicted_runtime_ms);
  EXPECT_EQ(g->plan->ToString(*db_, complex), m->plan->ToString(*db_, complex))
      << "disarmed ladder must render the MCTS plan byte for byte";

  // Simple query: the DP planner's plan, byte for byte.
  const query::Query simple = Simple();
  auto gs = guarded.Plan(simple, {});
  auto dp = baseline_->Plan(simple);
  ASSERT_TRUE(gs.ok()) << gs.status().ToString();
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_EQ(gs->stage, PlanStage::kTraditional);
  EXPECT_FALSE(gs->used_neural);
  EXPECT_EQ(gs->plans_evaluated, 0);
  EXPECT_EQ(gs->plan->ToString(*db_, simple), (*dp)->ToString(*db_, simple));

  const GuardStats stats = guarded.guard_stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.neural_attempts, 1);
  EXPECT_EQ(stats.neural_success, 1);
  EXPECT_EQ(stats.NeuralFailures(), 0);
  EXPECT_EQ(stats.traditional_success, 1);
  EXPECT_EQ(guarded.circuit_state(), HealthState::kClosed);
}

TEST_F(GuardedPlannerTest, MctsFaultDegradesToGreedy) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal, "rollout blew up");

  const query::Query q = Complex();
  auto result = planner.Plan(q, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_TRUE(result->used_neural);
  EXPECT_NE(result->fallback_reason.find("rollout blew up"), std::string::npos);
  EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());

  EXPECT_EQ(planner.guard_stats().neural_error, 1);
  EXPECT_EQ(planner.guard_stats().greedy_success, 1);
  EXPECT_EQ(planner.guard_stats().traditional_attempts, 0);
  EXPECT_GE(fault::FaultInjector::Global().Triggers("mcts.rollout"), 1);
}

TEST_F(GuardedPlannerTest, NanScoreDegradesPastGreedyToTraditional) {
  GuardedPlanner planner(model_, baseline_, Opts());
  // Corrupt every model prediction: MCTS and greedy both score NaN.
  fault::FaultSpec nan_spec;
  nan_spec.inject_nan = true;
  nan_spec.trigger_on_hit = 1;
  nan_spec.sticky = true;
  fault::FaultInjector::Global().Arm("vae.forward", nan_spec);

  const query::Query q = Complex();
  auto result = planner.Plan(q, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kTraditional);
  EXPECT_FALSE(result->used_neural);
  EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());

  EXPECT_EQ(planner.guard_stats().neural_nan, 1);
  EXPECT_EQ(planner.guard_stats().greedy_failures, 1);
  EXPECT_EQ(planner.guard_stats().traditional_success, 1);
}

TEST_F(GuardedPlannerTest, BlownDeadlineDegradesToGreedy) {
  GuardedOptions gopts = Opts();
  gopts.neural_deadline_ms = 5.0;
  GuardedPlanner planner(model_, baseline_, gopts);

  // Latency-only fault: the first rollout stalls 40 ms, past the hard
  // deadline of 4 x 5 ms.
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 40.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  auto result = planner.Plan(Complex(), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_EQ(planner.guard_stats().neural_deadline, 1);
  EXPECT_EQ(planner.guard_stats().greedy_success, 1);
}

TEST_F(GuardedPlannerTest, InvalidPlanVerdictDegradesToGreedy) {
  GuardedPlanner planner(model_, baseline_, Opts());
  // Fire validation exactly once: the neural plan is rejected, the greedy
  // plan re-validates cleanly.
  fault::FaultSpec reject;
  reject.code = StatusCode::kInvalidArgument;
  reject.message = "synthetic validation failure";
  reject.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("plan.validate", reject);

  auto result = planner.Plan(Complex(), {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_EQ(planner.guard_stats().neural_invalid_plan, 1);
  EXPECT_EQ(planner.guard_stats().greedy_success, 1);
}

TEST_F(GuardedPlannerTest, AllRungsFailingSurfacesTheLastError) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal);
  ArmSticky("greedy.plan", StatusCode::kInternal);
  ArmSticky("planner.dp", StatusCode::kAborted, "dp down");

  auto result = planner.Plan(Complex(), {});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
  EXPECT_EQ(planner.guard_stats().neural_error, 1);
  EXPECT_EQ(planner.guard_stats().greedy_failures, 1);
  EXPECT_EQ(planner.guard_stats().traditional_failures, 1);
}

TEST_F(GuardedPlannerTest, SimpleQueriesBypassTheNeuralPath) {
  GuardedPlanner planner(model_, baseline_, Opts());
  ArmSticky("mcts.rollout", StatusCode::kInternal);  // must never be reached

  auto result = planner.Plan(Simple(), {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stage, PlanStage::kTraditional);
  EXPECT_EQ(planner.guard_stats().neural_attempts, 0);
  EXPECT_EQ(fault::FaultInjector::Global().Hits("mcts.rollout"), 0);
}

TEST_F(GuardedPlannerTest, CircuitOpensShedsTrafficAndClosesAfterCooldown) {
  ManualClock manual_clock;
  GuardedOptions gopts = Opts();
  gopts.clock = &manual_clock;
  GuardedPlanner planner(model_, baseline_, gopts);
  const HealthOptions breaker;  // the ladder breaker runs on the defaults

  ArmSticky("mcts.rollout", StatusCode::kInternal);
  const query::Query q = Complex();

  // min_samples MCTS failures (each saved by greedy) trip the breaker.
  for (int i = 0; i < breaker.min_samples; ++i) {
    auto r = planner.Plan(q, {});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->stage, PlanStage::kGreedy);
    EXPECT_EQ(planner.circuit_state() == HealthState::kOpen,
              i == breaker.min_samples - 1);
  }
  EXPECT_EQ(planner.guard_stats().circuit_opens, 1);
  EXPECT_EQ(planner.guard_stats().neural_attempts, breaker.min_samples);
  // Breakers are per tenant: another tenant's ladder is untouched.
  EXPECT_EQ(planner.circuit_state("other"), HealthState::kClosed);

  // While open, complex queries short-circuit to the DP planner: no MCTS
  // attempt, no greedy attempt.
  auto shed = planner.Plan(q, {});
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->stage, PlanStage::kTraditional);
  EXPECT_EQ(shed->fallback_reason, "circuit open");
  EXPECT_EQ(planner.guard_stats().circuit_short_circuits, 1);
  EXPECT_EQ(planner.guard_stats().neural_attempts, breaker.min_samples);
  EXPECT_EQ(planner.guard_stats().greedy_attempts, breaker.min_samples);

  // Cool-down not yet elapsed: still shedding.
  manual_clock.SetMillis(breaker.open_ms - 1.0);
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  EXPECT_EQ(planner.guard_stats().circuit_short_circuits, 2);
  EXPECT_EQ(planner.circuit_state(), HealthState::kOpen);

  // After the cool-down the breaker half-opens: with the fault disarmed,
  // each request probes the neural rung, and probe_recoveries successful
  // probes in a row close it.
  manual_clock.SetMillis(breaker.open_ms + 1.0);
  fault::FaultInjector::Global().DisarmAll();
  for (int i = 0; i < breaker.probe_recoveries; ++i) {
    auto healed = planner.Plan(q, {});
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed->stage, PlanStage::kNeural);
    EXPECT_EQ(planner.circuit_state(), i + 1 < breaker.probe_recoveries
                                           ? HealthState::kHalfOpen
                                           : HealthState::kClosed);
  }
  EXPECT_EQ(planner.guard_stats().circuit_closes, 1);
  EXPECT_EQ(planner.guard_stats().neural_success, breaker.probe_recoveries);
}

TEST_F(GuardedPlannerTest, BreakerWindowSlidesOldFailuresOut) {
  ManualClock manual_clock;
  GuardedOptions gopts = Opts();
  gopts.clock = &manual_clock;
  GuardedPlanner planner(model_, baseline_, gopts);
  const HealthOptions breaker;
  const query::Query q = Complex();
  ArmSticky("mcts.rollout", StatusCode::kInternal);

  // One failure short of min_samples, then the window slides past them:
  // the next burst is judged on its own samples only.
  const int burst = breaker.min_samples - 1;
  for (int i = 0; i < burst; ++i) ASSERT_TRUE(planner.Plan(q, {}).ok());
  manual_clock.SetMillis(breaker.window_ms + 1.0);
  for (int i = 0; i < burst; ++i) ASSERT_TRUE(planner.Plan(q, {}).ok());
  EXPECT_EQ(planner.circuit_state(), HealthState::kClosed);
  EXPECT_EQ(planner.guard_stats().circuit_opens, 0);
  EXPECT_EQ(planner.guard_stats().NeuralFailures(), 2 * burst);

  // One more failure inside the same window reaches min_samples.
  ASSERT_TRUE(planner.Plan(q, {}).ok());
  EXPECT_EQ(planner.circuit_state(), HealthState::kOpen);
  EXPECT_EQ(planner.guard_stats().circuit_opens, 1);
}

TEST_F(GuardedPlannerTest, CancelledProbesReleaseTheirSlot) {
  ManualClock manual_clock;
  GuardedOptions gopts = Opts();
  gopts.clock = &manual_clock;
  GuardedPlanner planner(model_, baseline_, gopts);
  const HealthOptions breaker;
  const query::Query q = Complex();

  ArmSticky("mcts.rollout", StatusCode::kInternal);
  for (int i = 0; i < breaker.min_samples; ++i) {
    ASSERT_TRUE(planner.Plan(q, {}).ok());
  }
  ASSERT_EQ(planner.circuit_state(), HealthState::kOpen);
  manual_clock.SetMillis(breaker.open_ms + 1.0);

  // Fill every probe slot with a request whose caller gives up mid-search
  // (a 40 ms rollout stall against a 5 ms cancel deadline). Cancellation
  // says nothing about model health: no sample, and the slot is released.
  fault::FaultInjector::Global().DisarmAll();
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 40.0;
  stall.trigger_on_hit = 1;
  stall.sticky = true;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);
  for (int i = 0; i < breaker.probe_concurrency; ++i) {
    util::CancelToken cancel;
    cancel.ArmDeadline(5.0);
    PlanRequestOptions ropts;
    ropts.cancel = &cancel;
    auto r = planner.Plan(q, ropts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(planner.circuit_state(), HealthState::kHalfOpen);
  }
  EXPECT_EQ(planner.guard_stats().circuit_short_circuits, 0);

  // Had the cancelled probes leaked their slots, this request would be
  // rejected as "circuit open"; instead it probes the neural rung.
  fault::FaultInjector::Global().DisarmAll();
  auto probe = planner.Plan(q, {});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->stage, PlanStage::kNeural);
  EXPECT_EQ(planner.guard_stats().circuit_short_circuits, 0);
}

TEST_F(GuardedPlannerTest, GuardStatsRenderAllCounters) {
  GuardStats stats;
  stats.requests = 7;
  stats.neural_attempts = 5;
  stats.circuit_opens = 1;
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("requests=7"), std::string::npos);
  EXPECT_NE(s.find("opens=1"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace qps
