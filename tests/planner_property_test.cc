// Copyright 2026 The QPSeeker Authors
//
// Property-based tests over the planning stack: plan-sampler invariants,
// MCTS plan validity across seeds/budgets, Bao hint-arm properties, and
// hybrid-planner routing laws — each swept over a parameter grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/bao.h"
#include "core/mcts.h"
#include "core/planner_backends.h"
#include "eval/workloads.h"
#include "query/parser.h"
#include "sampling/plan_sampler.h"
#include "storage/schemas.h"

namespace qps {
namespace {

struct PlannerFixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::unique_ptr<optimizer::CardinalityEstimator> cards;
  std::vector<query::Query> queries;
  std::unique_ptr<core::QpSeeker> model;

  static const PlannerFixture& Get() {
    static PlannerFixture* f = [] {
      auto* fx = new PlannerFixture();
      Rng rng(1);
      fx->db = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value();
      fx->stats = stats::DatabaseStats::Analyze(*fx->db);
      fx->cards =
          std::make_unique<optimizer::CardinalityEstimator>(*fx->db, *fx->stats);
      const char* sqls[] = {
          "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
          "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;",
          "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id "
          "AND b.b3 > 1;",
      };
      for (const char* sql : sqls) {
        fx->queries.push_back(query::ParseSql(sql, *fx->db).value());
      }
      // A minimally-trained model (enough to fit the normalizer and get
      // stable predictions for planning-validity properties).
      sampling::DatasetOptions dopts;
      dopts.source = sampling::PlanSource::kSampled;
      dopts.sampler.max_plans_per_query = 4;
      Rng drng(2);
      auto ds = sampling::BuildQepDataset(*fx->db, *fx->stats, fx->queries, dopts,
                                          &drng)
                    .value();
      fx->model = std::make_unique<core::QpSeeker>(
          *fx->db, *fx->stats, core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
      core::TrainOptions topts;
      topts.epochs = 10;
      fx->model->Train(ds, topts);
      return fx;
    }();
    return *f;
  }
};

// ---- Sampler invariants -----------------------------------------------------

class SamplerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(SamplerPropertyTest, InvariantsHold) {
  const auto& fx = PlannerFixture::Get();
  const auto& [query_idx, keep_fraction, seed] = GetParam();
  const query::Query& q = fx.queries[static_cast<size_t>(query_idx)];

  sampling::SamplerOptions opts;
  opts.keep_fraction = keep_fraction;
  opts.candidates_per_order = 4;
  opts.max_plans_per_query = 50;
  sampling::PlanSampler sampler(*fx.db, *fx.cards, opts);
  Rng rng(seed);
  auto plans = sampler.SamplePlans(q, &rng);
  ASSERT_FALSE(plans.empty());
  EXPECT_LE(plans.size(), opts.max_plans_per_query);
  const uint64_t full_mask = (uint64_t{1} << q.num_relations()) - 1;
  double prev_cost = -1.0;
  for (const auto& plan : plans) {
    // Sorted cheapest-first, covers all relations, valid join predicates.
    EXPECT_GE(plan->estimated.cost, prev_cost);
    prev_cost = plan->estimated.cost;
    EXPECT_EQ(plan->RelMask(), full_mask);
    plan->PostOrder([&](const query::PlanNode& n) {
      if (n.is_leaf()) {
        EXPECT_TRUE(query::IsScan(n.op));
        EXPECT_GE(n.rel, 0);
      } else {
        EXPECT_TRUE(query::IsJoin(n.op));
        EXPECT_FALSE(n.join_preds.empty()) << "no cross products";
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SamplerPropertyTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0.15, 0.5),
                                            ::testing::Values(11u, 77u)));

// ---- MCTS validity across seeds and budgets --------------------------------

class MctsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, int>> {};

TEST_P(MctsPropertyTest, AlwaysProducesValidExecutablePlan) {
  const auto& fx = PlannerFixture::Get();
  const auto& [query_idx, seed, rollouts] = GetParam();
  const query::Query& q = fx.queries[static_cast<size_t>(query_idx)];
  core::MctsOptions opts;
  opts.seed = seed;
  opts.max_rollouts = rollouts;
  opts.time_budget_ms = 1e9;
  auto result = core::MctsPlan(*fx.model, q, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan->RelMask(), (uint64_t{1} << q.num_relations()) - 1);
  EXPECT_LE(result->plans_evaluated, rollouts);
  EXPECT_GT(result->plans_evaluated, 0);
  // Left-deep by construction: every right child is a leaf.
  result->plan->PostOrder([](const query::PlanNode& n) {
    if (!n.is_leaf()) {
      EXPECT_TRUE(n.right->is_leaf());
    }
  });
  exec::Executor ex(*fx.db);
  EXPECT_TRUE(ex.Execute(q, result->plan.get()).ok());
}

INSTANTIATE_TEST_SUITE_P(Grid, MctsPropertyTest,
                         ::testing::Combine(::testing::Values(0, 2),
                                            ::testing::Values(5u, 123u, 999u),
                                            ::testing::Values(10, 50)));

TEST(MctsBudgetTest, MoreRolloutsNeverWorsenPredictedPlan) {
  const auto& fx = PlannerFixture::Get();
  const query::Query& q = fx.queries[2];
  double prev = INFINITY;
  for (int rollouts : {5, 50, 500}) {
    core::MctsOptions opts;
    opts.seed = 7;
    opts.max_rollouts = rollouts;
    opts.time_budget_ms = 1e9;
    auto result = core::MctsPlan(*fx.model, q, opts);
    ASSERT_TRUE(result.ok());
    // The best-so-far predicted runtime is monotone in the rollout budget
    // for a fixed seed (the search only ever improves its incumbent).
    EXPECT_LE(result->predicted_runtime_ms, prev + 1e-9);
    prev = result->predicted_runtime_ms;
  }
}

// ---- Bao arm properties -----------------------------------------------------

TEST(BaoArmsTest, ArmsAreValidDistinctAndComplete) {
  const auto arms = baselines::Bao::AllArms();
  EXPECT_EQ(arms.size(), 49u);
  std::set<std::string> unique;
  bool has_all_enabled = false;
  for (const auto& arm : arms) {
    EXPECT_TRUE(arm.Valid());
    unique.insert(arm.ToString());
    has_all_enabled = has_all_enabled ||
                      (arm.enable_hashjoin && arm.enable_mergejoin &&
                       arm.enable_nestloop && arm.enable_seqscan &&
                       arm.enable_indexscan && arm.enable_bitmapscan);
  }
  EXPECT_EQ(unique.size(), 49u) << "arms must be distinct";
  EXPECT_TRUE(has_all_enabled) << "the no-hint arm must be present";
}

class BaoArmPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(BaoArmPlanTest, EveryArmPlansEveryQueryWithinItsOperatorSet) {
  const auto& fx = PlannerFixture::Get();
  const query::Query& q = fx.queries[static_cast<size_t>(GetParam())];
  optimizer::Planner planner(*fx.db, *fx.stats);
  for (const auto& arm : baselines::Bao::AllArms()) {
    auto plan = planner.Plan(q, arm);
    ASSERT_TRUE(plan.ok()) << arm.ToString();
    const auto scans = arm.AllowedScans();
    const auto joins = arm.AllowedJoins();
    (*plan)->PostOrder([&](const query::PlanNode& n) {
      const auto& allowed = n.is_leaf() ? scans : joins;
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), n.op), allowed.end())
          << query::OpTypeName(n.op) << " not allowed under " << arm.ToString();
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, BaoArmPlanTest, ::testing::Range(0, 3));

// ---- Hybrid routing law -----------------------------------------------------

class HybridThresholdTest : public ::testing::TestWithParam<int> {};

TEST_P(HybridThresholdTest, RoutesExactlyByRelationCount) {
  const auto& fx = PlannerFixture::Get();
  optimizer::Planner baseline(*fx.db, *fx.stats);
  core::GuardedOptions gopts;
  gopts.hybrid.neural_min_relations = GetParam();
  gopts.hybrid.mcts.max_rollouts = 20;
  gopts.hybrid.mcts.time_budget_ms = 1e9;
  auto hybrid =
      core::MakePlanner("guarded", fx.model.get(), &baseline, gopts).value();
  for (const auto& q : fx.queries) {
    auto result = hybrid->Plan(q, {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->used_neural, q.num_relations() >= GetParam());
    EXPECT_EQ(result->plan->RelMask(), (uint64_t{1} << q.num_relations()) - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HybridThresholdTest, ::testing::Values(2, 3, 4));

// ---- Exhaustive result-invariance oracle ------------------------------------
//
// Ground truth for the fuzzer's differential oracle: for every connected
// query of <= 4 relations over the toy schema, *every* connected left-deep
// join order must execute to the same root cardinality, and the DP and
// greedy planners' chosen plans must match that cardinality exactly. A
// planner that reorders joins may change cost, never the answer.

// All connected queries over distinct-table subsets of the toy schema,
// joined by every applicable schema edge, plus self-join variants that
// exercise duplicate relation instances up to 4 relations.
std::vector<query::Query> EnumerateSmallQueries(const storage::Database& db) {
  std::vector<query::Query> out;
  const int n = db.num_tables();
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    query::Query q;
    std::vector<int> rel_of_table(static_cast<size_t>(n), -1);
    for (int t = 0; t < n; ++t) {
      if (mask & (1u << t)) {
        rel_of_table[static_cast<size_t>(t)] = q.num_relations();
        q.relations.push_back({t, db.table(t).name()});
      }
    }
    for (size_t e = 0; e < db.join_edges().size(); ++e) {
      const auto& edge = db.join_edges()[e];
      const int lr = rel_of_table[static_cast<size_t>(edge.left_table)];
      const int rr = rel_of_table[static_cast<size_t>(edge.right_table)];
      if (lr < 0 || rr < 0) continue;
      q.joins.push_back({lr, edge.left_column, rr, edge.right_column,
                         static_cast<int>(e)});
    }
    if (!q.IsConnected()) continue;
    out.push_back(std::move(q));
  }
  // Self-join variants (toy schema: b.b1 -> a.id, c.c1 -> b.id).
  const auto& fx = PlannerFixture::Get();
  const char* self_join_sqls[] = {
      "SELECT COUNT(*) FROM b x, b y, a WHERE x.b1 = a.id AND y.b1 = a.id;",
      "SELECT COUNT(*) FROM a, b, c, c c2 WHERE b.b1 = a.id AND c.c1 = b.id "
      "AND c2.c1 = b.id;",
      "SELECT COUNT(*) FROM b x, b y, a, c WHERE x.b1 = a.id AND y.b1 = a.id "
      "AND c.c1 = x.id;",
  };
  for (const char* sql : self_join_sqls) {
    out.push_back(query::ParseSql(sql, *fx.db).value());
  }
  return out;
}

TEST(ExhaustiveInvarianceTest, AllJoinOrdersAndPlannersAgreeOnCardinality) {
  const auto& fx = PlannerFixture::Get();
  optimizer::Planner baseline(*fx.db, *fx.stats);
  const auto queries = EnumerateSmallQueries(*fx.db);
  ASSERT_GE(queries.size(), 8u);

  for (const auto& q : queries) {
    ASSERT_LE(q.num_relations(), 4);
    ASSERT_TRUE(q.Validate(*fx.db).ok());
    const auto orders = query::EnumerateJoinOrders(q, 10'000);
    ASSERT_FALSE(orders.empty());

    // Every connected left-deep order executes to the same cardinality.
    double reference = -1.0;
    for (const auto& order : orders) {
      std::vector<query::OpType> scans(order.size(), query::OpType::kSeqScan);
      std::vector<query::OpType> joins(
          order.empty() ? 0 : order.size() - 1, query::OpType::kHashJoin);
      auto plan = query::BuildLeftDeepPlan(q, order, scans, joins);
      ASSERT_NE(plan, nullptr);
      ASSERT_TRUE(query::ValidatePlan(q, *plan).ok());
      exec::Executor ex(*fx.db);
      auto rows = ex.Execute(q, plan.get());
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      if (reference < 0.0) {
        reference = rows.value();
      } else {
        ASSERT_EQ(rows.value(), reference)
            << "join order changed the answer of " << q.ToSql(*fx.db);
      }
    }

    // The DP planner's choice is valid, finite, and answer-preserving.
    auto dp = baseline.Plan(q);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    ASSERT_TRUE(query::ValidatePlan(q, **dp).ok());
    (*dp)->PostOrder([](const query::PlanNode& n) {
      EXPECT_TRUE(query::StatsAreFinite(n.estimated));
    });
    exec::Executor dp_ex(*fx.db);
    auto dp_rows = dp_ex.Execute(q, dp->get());
    ASSERT_TRUE(dp_rows.ok());
    EXPECT_EQ(dp_rows.value(), reference);

    // So is the greedy (model-guided) planner's.
    auto greedy = core::GreedyPlan(*fx.model, q);
    ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
    ASSERT_TRUE(query::ValidatePlan(q, *greedy->plan).ok());
    exec::Executor g_ex(*fx.db);
    auto g_rows = g_ex.Execute(q, greedy->plan.get());
    ASSERT_TRUE(g_rows.ok());
    EXPECT_EQ(g_rows.value(), reference);
  }
}

}  // namespace
}  // namespace qps
