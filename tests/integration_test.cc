// Copyright 2026 The QPSeeker Authors
//
// Cross-module integration tests: the full pipeline from data generation
// through training to hybrid planning, plus workload persistence.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/mcts.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "eval/workload_io.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "query/parser.h"
#include "storage/schemas.h"

namespace qps {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    auto db = storage::BuildDatabase(storage::ImdbLikeSpec(), 250, &rng);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    stats_ = stats::DatabaseStats::Analyze(*db_);
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<stats::DatabaseStats> stats_;
};

TEST_F(IntegrationTest, FullPipelineTrainPlanExecute) {
  // Workload -> sampled QEPs -> train -> plan unseen query -> execute.
  eval::WorkloadOptions wo;
  wo.num_queries = 24;
  wo.min_joins = 1;
  wo.max_joins = 3;
  wo.num_templates = 8;
  Rng wrng(2);
  auto queries = eval::GenerateWorkload(*db_, wo, &wrng);
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.max_plans_per_query = 4;
  Rng drng(3);
  auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();

  core::QpSeeker seeker(*db_, *stats_,
                        core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  core::TrainOptions topts;
  topts.epochs = 15;
  topts.learning_rate = 2e-3f;
  auto report = seeker.Train(*ds, topts);
  EXPECT_LT(report.final_loss, report.epoch_losses.front());

  // Plan a fresh query (not from the workload).
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k WHERE "
      "mk.movie_id = t.id AND mk.keyword_id = k.id AND t.production_year < 60;",
      *db_);
  ASSERT_TRUE(q.ok());
  core::MctsOptions mopts;
  mopts.max_rollouts = 60;
  mopts.time_budget_ms = 1e9;
  auto result = core::MctsPlan(seeker, *q, mopts);
  ASSERT_TRUE(result.ok());
  exec::Executor ex(*db_);
  auto card = ex.Execute(*q, result->plan.get());
  ASSERT_TRUE(card.ok());
  EXPECT_GE(*card, 0.0);
  EXPECT_GT(result->plan->actual.runtime_ms, 0.0);
}

TEST_F(IntegrationTest, LadderPlannerRoutesByComplexity) {
  // Minimal trained model (normalizer fitted).
  eval::WorkloadOptions wo;
  wo.num_queries = 8;
  wo.max_joins = 2;
  Rng wrng(4);
  auto queries = eval::GenerateWorkload(*db_, wo, &wrng);
  sampling::DatasetOptions dopts;
  Rng drng(5);
  auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng);
  ASSERT_TRUE(ds.ok());
  core::QpSeeker seeker(*db_, *stats_,
                        core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  core::TrainOptions topts;
  topts.epochs = 5;
  seeker.Train(*ds, topts);

  optimizer::Planner baseline(*db_, *stats_);
  core::GuardedOptions gopts;
  gopts.hybrid.neural_min_relations = 3;
  gopts.hybrid.mcts.max_rollouts = 40;
  gopts.hybrid.mcts.time_budget_ms = 1e9;
  auto hybrid = core::MakePlanner("guarded", &seeker, &baseline, gopts).value();

  auto simple = query::ParseSql(
      "SELECT COUNT(*) FROM title t, aka_title at WHERE at.movie_id = t.id;", *db_);
  ASSERT_TRUE(simple.ok());
  auto r1 = hybrid->Plan(*simple, {});
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->used_neural) << "2-relation query must take the DP path";
  EXPECT_EQ(r1->plans_evaluated, 0);

  auto complex = query::ParseSql(
      "SELECT COUNT(*) FROM title t, cast_info ci, role_type rt, name n WHERE "
      "ci.movie_id = t.id AND ci.role_id = rt.id AND ci.person_id = n.id;",
      *db_);
  ASSERT_TRUE(complex.ok());
  auto r2 = hybrid->Plan(*complex, {});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->used_neural) << "4-relation query must take the MCTS path";
  EXPECT_GT(r2->plans_evaluated, 0);

  // Both plans execute correctly.
  exec::Executor ex(*db_);
  EXPECT_TRUE(ex.Execute(*simple, r1->plan.get()).ok());
  EXPECT_TRUE(ex.Execute(*complex, r2->plan.get()).ok());
}

TEST_F(IntegrationTest, WorkloadSaveLoadRoundTrip) {
  eval::WorkloadOptions wo;
  wo.num_queries = 12;
  wo.max_joins = 3;
  wo.num_templates = 4;
  Rng wrng(6);
  auto queries = eval::GenerateWorkload(*db_, wo, &wrng);
  const std::string path = "/tmp/qps_workload_roundtrip.sql";
  ASSERT_TRUE(eval::SaveWorkload(queries, *db_, path).ok());
  auto loaded = eval::LoadWorkload(*db_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*loaded)[i].ToSql(*db_), queries[i].ToSql(*db_));
    EXPECT_EQ((*loaded)[i].template_id, queries[i].template_id);
  }
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, WorkloadLoadRejectsBadSql) {
  const std::string path = "/tmp/qps_workload_bad.sql";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("SELECT COUNT(*) FROM ghost_table;\n", f);
    std::fclose(f);
  }
  auto loaded = eval::LoadWorkload(*db_, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(":1:"), std::string::npos)
      << "error must carry the line number";
  std::remove(path.c_str());
}

TEST_F(IntegrationTest, BushySamplingProducesValidLabeledQeps) {
  eval::WorkloadOptions wo;
  wo.num_queries = 4;
  wo.min_joins = 2;
  wo.max_joins = 3;
  Rng wrng(7);
  auto queries = eval::GenerateWorkload(*db_, wo, &wrng);
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.bushy_fraction = 0.5;
  dopts.sampler.keep_fraction = 0.6;
  Rng drng(8);
  auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  int bushy_seen = 0;
  for (const auto& qep : ds->qeps) {
    // A bushy node has a non-leaf right child.
    qep.plan->PostOrder([&](const query::PlanNode& n) {
      if (n.right != nullptr && !n.right->is_leaf()) ++bushy_seen;
    });
    EXPECT_GT(qep.plan->actual.runtime_ms, 0.0);
  }
  EXPECT_GT(bushy_seen, 0) << "bushy sampling must yield at least one bushy QEP";
}

}  // namespace
}  // namespace qps
