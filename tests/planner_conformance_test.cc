// Copyright 2026 The QPSeeker Authors
//
// Conformance suite for the unified core::Planner interface: every backend
// reachable through MakePlanner ("baseline", "neural", "guarded")
// must satisfy the same contract — OK results carry a non-null, validated
// plan with finite stats; malformed queries fail with the documented error
// codes; a fixed request seed makes planning reproducible; deadlines
// truncate the search instead of failing unless fail_on_deadline is set;
// one instance serves concurrent callers exactly as it serves serial ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/guarded_planner.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/fault.h"

namespace qps {
namespace core {
namespace {

const char* kBackends[] = {"baseline", "neural", "guarded"};

class PlannerConformanceTest : public ::testing::Test {
 protected:
  // One trained model for the whole suite: the contract checks only need a
  // model that scores plans, not a good one.
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

  /// Deterministic backend configuration: rollout-capped MCTS so planning
  /// time never decides the plan, 3+ relations route neural.
  static GuardedOptions Opts() {
    GuardedOptions opts;
    opts.hybrid.neural_min_relations = 3;
    opts.hybrid.mcts.time_budget_ms = 1e9;
    opts.hybrid.mcts.max_rollouts = 30;
    opts.hybrid.mcts.eval_batch = 4;
    opts.hybrid.mcts.seed = 5;
    return opts;
  }

  static std::unique_ptr<Planner> Make(const std::string& name) {
    auto p = MakePlanner(name, model_, baseline_, Opts());
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    return std::move(p).value();
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static QpSeeker* model_;
};

storage::Database* PlannerConformanceTest::db_ = nullptr;
stats::DatabaseStats* PlannerConformanceTest::stats_ = nullptr;
optimizer::Planner* PlannerConformanceTest::baseline_ = nullptr;
QpSeeker* PlannerConformanceTest::model_ = nullptr;

TEST_F(PlannerConformanceTest, EveryBackendReturnsAValidatedPlan) {
  for (const char* name : kBackends) {
    auto planner = Make(name);
    EXPECT_STREQ(planner->name(), name);
    for (const auto& q : {Complex(), Simple()}) {
      auto result = planner->Plan(q, {});
      ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
      ASSERT_NE(result->plan, nullptr) << name;
      EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok()) << name;
      EXPECT_TRUE(query::StatsAreFinite(result->node_stats)) << name;
      EXPECT_GE(result->plan_ms, 0.0) << name;
      // Stage and the neural flag must agree.
      EXPECT_EQ(result->used_neural, result->stage != PlanStage::kTraditional)
          << name;
      if (result->used_neural) {
        EXPECT_GT(result->plans_evaluated, 0) << name;
      } else {
        EXPECT_EQ(result->plans_evaluated, 0) << name;
      }
      EXPECT_FALSE(result->deadline_hit) << name;
    }
  }
}

TEST_F(PlannerConformanceTest, BackendsAgreeOnRouting) {
  // The complex query consults the model everywhere except the baseline;
  // the simple query is traditional everywhere except raw MCTS.
  for (const char* name : kBackends) {
    auto planner = Make(name);
    auto complex_plan = planner->Plan(Complex(), {});
    auto simple_plan = planner->Plan(Simple(), {});
    ASSERT_TRUE(complex_plan.ok() && simple_plan.ok()) << name;
    const bool is_baseline = std::string(name) == "baseline";
    const bool is_neural = std::string(name) == "neural";
    EXPECT_EQ(complex_plan->used_neural, !is_baseline) << name;
    EXPECT_EQ(simple_plan->used_neural, is_neural) << name;
  }
}

TEST_F(PlannerConformanceTest, FixedSeedReproducesTheExactPlan) {
  const query::Query q = Complex();
  for (const char* name : kBackends) {
    PlanRequestOptions ropts;
    ropts.seed = 77;
    auto first = Make(name)->Plan(q, ropts);
    auto second = Make(name)->Plan(q, ropts);
    ASSERT_TRUE(first.ok() && second.ok()) << name;
    EXPECT_EQ(first->plan->ToString(*db_, q), second->plan->ToString(*db_, q))
        << name << ": same request seed must reproduce the same plan";
    EXPECT_EQ(first->plans_evaluated, second->plans_evaluated) << name;
  }
}

// Plan() is const and thread-safe (planner_api.h): one instance per
// backend, called from 4 threads with fixed seeds, renders exactly the
// plans serial planning does, and the ladder counts every call once. Run
// under TSan in tier-1.
TEST_F(PlannerConformanceTest, OneInstanceServesConcurrentCallers) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  constexpr int kCalls = kThreads * kPerThread;
  std::vector<query::Query> queries;
  for (int i = 0; i < kCalls; ++i) {
    queries.push_back(i % 3 == 0 ? Simple() : Complex());
  }
  auto plan_one = [&](Planner& planner, int i) {
    PlanRequestOptions ropts;
    ropts.seed = 900 + static_cast<uint64_t>(i);
    const query::Query& q = queries[static_cast<size_t>(i)];
    auto result = planner.Plan(q, ropts);
    return result.ok() ? result->plan->ToString(*db_, q)
                       : "error: " + result.status().ToString();
  };
  for (const char* name : kBackends) {
    std::vector<std::string> serial;
    auto reference = Make(name);
    for (int i = 0; i < kCalls; ++i) {
      serial.push_back(plan_one(*reference, i));
      ASSERT_EQ(serial.back().rfind("error: ", 0), std::string::npos)
          << name << ": " << serial.back();
    }

    auto shared = Make(name);
    std::vector<std::string> concurrent(kCalls);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kPerThread; ++k) {
          const int i = t + k * kThreads;
          concurrent[static_cast<size_t>(i)] = plan_one(*shared, i);
        }
      });
    }
    for (auto& th : threads) th.join();

    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(concurrent[static_cast<size_t>(i)],
                serial[static_cast<size_t>(i)])
          << name << ": call " << i;
    }
    const bool guarded = std::string(name) == "guarded";
    EXPECT_EQ(shared->guard_stats().requests, guarded ? kCalls : 0) << name;
  }
}

TEST_F(PlannerConformanceTest, EmptyQueryIsInvalidArgumentEverywhere) {
  const query::Query empty;
  for (const char* name : kBackends) {
    auto result = Make(name)->Plan(empty, {});
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument)
        << name << ": " << result.status().ToString();
  }
}

TEST_F(PlannerConformanceTest, TightDeadlineStillYieldsAValidPlan) {
  // A deadline that expires immediately must truncate the anytime search to
  // its guaranteed first batch, not fail: best-so-far plan + deadline_hit.
  const query::Query q = Complex();
  PlanRequestOptions ropts;
  ropts.deadline_ms = 1e-3;
  for (const char* name : {"neural", "guarded"}) {
    auto result = Make(name)->Plan(q, ropts);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    ASSERT_NE(result->plan, nullptr) << name;
    EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok()) << name;
    EXPECT_TRUE(result->deadline_hit) << name;
    EXPECT_GT(result->plans_evaluated, 0) << name;
  }
  // The baseline ignores deadlines entirely (DP planning is microseconds).
  auto base = Make("baseline")->Plan(q, ropts);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base->deadline_hit);
}

TEST_F(PlannerConformanceTest, FailOnDeadlineSurfacesDeadlineExceeded) {
  const query::Query q = Complex();
  PlanRequestOptions ropts;
  ropts.deadline_ms = 1e-3;
  ropts.fail_on_deadline = true;
  for (const char* name : {"neural", "guarded"}) {
    auto result = Make(name)->Plan(q, ropts);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_TRUE(result.status().IsDeadlineExceeded())
        << name << ": " << result.status().ToString();
  }
}

TEST_F(PlannerConformanceTest, GuardStatsCountOnlyOnTheGuardedBackend) {
  const query::Query q = Complex();
  for (const char* name : kBackends) {
    auto planner = Make(name);
    ASSERT_TRUE(planner->Plan(q, {}).ok()) << name;
    const GuardStats stats = planner->guard_stats();
    if (std::string(name) == "guarded") {
      EXPECT_EQ(stats.requests, 1) << name;
      EXPECT_EQ(stats.neural_attempts, 1) << name;
    } else {
      EXPECT_EQ(stats.requests, 0) << name;
      EXPECT_EQ(stats.neural_attempts, 0) << name;
    }
  }
}

TEST_F(PlannerConformanceTest, GuardedLadderDegradesThroughTheInterface) {
  // An injected MCTS fault must stay invisible to the caller: the unified
  // entry point still returns OK with a validated greedy-stage plan.
  auto planner = Make("guarded");
  fault::FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.message = "injected rollout fault";
  spec.trigger_on_hit = 1;
  spec.sticky = true;
  fault::FaultInjector::Global().Arm("mcts.rollout", spec);

  const query::Query q = Complex();
  auto result = planner->Plan(q, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stage, PlanStage::kGreedy);
  EXPECT_NE(result->fallback_reason.find("injected rollout fault"),
            std::string::npos);
  EXPECT_TRUE(query::ValidatePlan(q, *result->plan).ok());
  EXPECT_EQ(planner->guard_stats().neural_error, 1);
}

TEST_F(PlannerConformanceTest, MakePlannerRejectsUnknownAndMisconfigured) {
  auto unknown = MakePlanner("quantum", model_, baseline_, Opts());
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().code() == StatusCode::kInvalidArgument);

  // Every backend except "baseline" needs a model.
  for (const char* name : {"neural", "guarded"}) {
    auto no_model = MakePlanner(name, nullptr, baseline_, Opts());
    ASSERT_FALSE(no_model.ok()) << name;
    EXPECT_TRUE(no_model.status().code() == StatusCode::kInvalidArgument) << name;
  }
  auto no_baseline = MakePlanner("baseline", model_, nullptr, Opts());
  ASSERT_FALSE(no_baseline.ok());
  EXPECT_TRUE(no_baseline.status().code() == StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace qps
