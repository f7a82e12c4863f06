// Copyright 2026 The QPSeeker Authors
//
// End-to-end tests of the QPSeeker system: training convergence, prediction
// quality on a toy workload, MCTS planning, and model persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "core/mcts.h"
#include "core/plan_cache.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "storage/schemas.h"

namespace qps {
namespace core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    auto db = storage::BuildDatabase(storage::ToySpec(), 400, &rng);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    stats_ = stats::DatabaseStats::Analyze(*db_);

    // A small training workload with variations.
    const char* templates[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < %d;",
        "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id AND b.b3 <= %d;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id AND a.a2 = %d;",
        "SELECT COUNT(*) FROM a WHERE a.a2 >= %d;",
    };
    std::vector<query::Query> queries;
    for (int v = 1; v <= 4; ++v) {
      for (const char* tpl : templates) {
        char sql[256];
        std::snprintf(sql, sizeof(sql), tpl, v * 2);
        auto q = query::ParseSql(sql, *db_);
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        q->template_id = tpl;
        queries.push_back(std::move(q).value());
      }
    }
    sampling::DatasetOptions opts;
    opts.source = sampling::PlanSource::kSampled;
    opts.sampler.candidates_per_order = 4;
    opts.sampler.max_plans_per_query = 6;
    Rng drng(2);
    auto ds = sampling::BuildQepDataset(*db_, *stats_, std::move(queries), opts, &drng);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = std::move(ds).value();
    ASSERT_GT(dataset_.qeps.size(), 20u);
  }

  QpSeeker MakeTrained(double beta = 100.0, int epochs = 60) {
    QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke);
    cfg.beta = beta;
    QpSeeker seeker(*db_, *stats_, cfg, /*seed=*/3);
    TrainOptions topts;
    topts.epochs = epochs;
    topts.learning_rate = 2e-3f;
    topts.seed = 4;
    seeker.Train(dataset_, topts);
    return seeker;
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<stats::DatabaseStats> stats_;
  sampling::QepDataset dataset_;
};

TEST_F(CoreTest, TrainingLossDecreases) {
  QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke);
  QpSeeker seeker(*db_, *stats_, cfg, 3);
  TrainOptions topts;
  topts.epochs = 10;
  topts.seed = 4;
  auto report = seeker.Train(dataset_, topts);
  ASSERT_EQ(report.epoch_losses.size(), 10u);
  EXPECT_LT(report.final_loss, report.epoch_losses.front() * 0.8);
  EXPECT_GT(report.num_parameters, 1000);
}

TEST_F(CoreTest, PredictionsAreInSaneRanges) {
  QpSeeker seeker = MakeTrained();
  for (size_t i = 0; i < 5 && i < dataset_.qeps.size(); ++i) {
    const auto& qep = dataset_.qeps[i];
    const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
    const auto pred = seeker.PredictPlan(q, *qep.plan);
    EXPECT_GE(pred.cardinality, 0.0);
    EXPECT_GE(pred.runtime_ms, 0.0);
    EXPECT_TRUE(std::isfinite(pred.cost));
  }
}

TEST_F(CoreTest, TrainedModelBeatsUntrainedOnRuntime) {
  QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke);
  QpSeeker untrained(*db_, *stats_, cfg, 3);
  // Fit only the normalizer so Denormalize works.
  sampling::QepDataset empty_train;
  empty_train.queries = {};  // (cannot train on empty; emulate via 0 epochs)
  TrainOptions zero;
  zero.epochs = 0;
  untrained.Train(dataset_, zero);

  QpSeeker trained = MakeTrained();
  auto qerr = [](double pred, double truth) {
    const double p = std::max(pred, 0.1);
    const double t = std::max(truth, 0.1);
    return std::max(p / t, t / p);
  };
  std::vector<double> errs_untrained, errs_trained;
  for (const auto& qep : dataset_.qeps) {
    const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
    errs_untrained.push_back(qerr(untrained.PredictPlan(q, *qep.plan).runtime_ms,
                                  qep.plan->actual.runtime_ms));
    errs_trained.push_back(qerr(trained.PredictPlan(q, *qep.plan).runtime_ms,
                                qep.plan->actual.runtime_ms));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  double sum_untrained = 0.0, sum_trained = 0.0;
  for (double e : errs_untrained) sum_untrained += e;
  for (double e : errs_trained) sum_trained += e;
  EXPECT_LT(sum_trained, sum_untrained) << "training must improve fit";
  EXPECT_LT(median(errs_trained), 3.0) << "median q-error on train set";
}

TEST_F(CoreTest, PredictNodesReturnsPostOrderTriples) {
  QpSeeker seeker = MakeTrained();
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  auto nodes = seeker.PredictNodes(q, *qep.plan);
  EXPECT_EQ(static_cast<int>(nodes.size()), qep.plan->NumNodes());
}

// Attention scores describe the plan they are asked for, never the last
// plan some forward happened to run: a single-node plan skips attention, so
// its scores are empty even right after a multi-node prediction.
TEST_F(CoreTest, AttentionScoresOfSingleNodePlanAreEmpty) {
  QpSeeker seeker = MakeTrained(100.0, /*epochs=*/5);
  const sampling::Qep* multi = nullptr;
  const sampling::Qep* single = nullptr;
  for (const auto& qep : dataset_.qeps) {
    if (multi == nullptr && qep.plan->NumNodes() > 1) multi = &qep;
    if (single == nullptr && qep.plan->NumNodes() == 1) single = &qep;
  }
  ASSERT_NE(multi, nullptr);
  ASSERT_NE(single, nullptr);
  const auto& mq = dataset_.queries[static_cast<size_t>(multi->query_id)];
  const auto& sq = dataset_.queries[static_cast<size_t>(single->query_id)];
  seeker.PredictPlan(mq, *multi->plan);
  seeker.PredictPlan(sq, *single->plan);
  EXPECT_EQ(seeker.AttentionScores(sq, *single->plan).size(), 0);
}

// One row per head, each a softmax over the plan's nodes, and the same
// scores whether the plan's prediction is cached or not (a cache hit runs
// no forward at all).
TEST_F(CoreTest, AttentionScoresAreRowStochasticAndCacheIndependent) {
  QpSeeker seeker = MakeTrained(100.0, /*epochs=*/5);
  seeker.EnableCache(1 << 20);
  std::vector<const sampling::Qep*> multi;
  for (const auto& qep : dataset_.qeps) {
    if (qep.plan->NumNodes() > 1 &&
        (multi.empty() || PlanShapeHash(*qep.plan) != PlanShapeHash(*multi[0]->plan))) {
      multi.push_back(&qep);
    }
    if (multi.size() == 2) break;
  }
  ASSERT_EQ(multi.size(), 2u);
  const auto& q = dataset_.queries[static_cast<size_t>(multi[0]->query_id)];
  const query::PlanNode& plan = *multi[0]->plan;

  const nn::Tensor cold = seeker.AttentionScores(q, plan);
  ASSERT_EQ(cold.rows(), seeker.config().encoder.attn_heads);
  ASSERT_EQ(cold.cols(), plan.NumNodes());
  for (int64_t h = 0; h < cold.rows(); ++h) {
    float sum = 0.0f;
    for (int64_t j = 0; j < cold.cols(); ++j) {
      EXPECT_GE(cold(h, j), 0.0f);
      sum += cold(h, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }

  // Cache the plan, run a different plan's forward, then hit the cache.
  seeker.PredictPlan(q, plan);
  seeker.PredictPlan(dataset_.queries[static_cast<size_t>(multi[1]->query_id)],
                     *multi[1]->plan);
  const int64_t hits = seeker.cache()->GetStats().hits;
  seeker.PredictPlan(q, plan);
  ASSERT_EQ(seeker.cache()->GetStats().hits, hits + 1);
  EXPECT_EQ(seeker.AttentionScores(q, plan).ToVector(), cold.ToVector());
}

TEST_F(CoreTest, LatentVectorsHaveConfiguredDim) {
  QpSeeker seeker = MakeTrained();
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  auto z = seeker.LatentVector(q, *qep.plan);
  EXPECT_EQ(z.size(), static_cast<size_t>(seeker.config().latent_dim));
  // Deterministic at inference (z == mu, no sampling).
  auto z2 = seeker.LatentVector(q, *qep.plan);
  EXPECT_EQ(z, z2);
}

TEST_F(CoreTest, SimilarQepsLandCloserInLatentSpaceThanDissimilar) {
  QpSeeker seeker = MakeTrained(100.0, 15);
  // Two plans of the same query vs plans of different queries.
  int qid0 = dataset_.qeps[0].query_id;
  std::vector<size_t> same, other;
  for (size_t i = 0; i < dataset_.qeps.size(); ++i) {
    (dataset_.qeps[i].query_id == qid0 ? same : other).push_back(i);
  }
  ASSERT_GE(same.size(), 2u);
  ASSERT_GE(other.size(), 1u);
  auto latent = [&](size_t i) {
    const auto& qep = dataset_.qeps[i];
    return seeker.LatentVector(dataset_.queries[static_cast<size_t>(qep.query_id)],
                               *qep.plan);
  };
  auto dist = [](const std::vector<float>& a, const std::vector<float>& b) {
    double d = 0;
    for (size_t i = 0; i < a.size(); ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(d);
  };
  const auto z0 = latent(same[0]);
  double avg_same = 0.0, avg_other = 0.0;
  int cs = 0, co = 0;
  for (size_t i = 1; i < same.size() && cs < 5; ++i, ++cs) {
    avg_same += dist(z0, latent(same[i]));
  }
  for (size_t i = 0; i < other.size() && co < 5; ++i, ++co) {
    avg_other += dist(z0, latent(other[i]));
  }
  avg_same /= std::max(1, cs);
  avg_other /= std::max(1, co);
  EXPECT_LT(avg_same, avg_other * 1.5)
      << "same-query QEPs should not be far outliers";
}

TEST_F(CoreTest, MctsProducesValidPlanWithinBudget) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id AND a.a2 < 9;",
      *db_);
  ASSERT_TRUE(q.ok());
  MctsOptions mopts;
  mopts.time_budget_ms = 100.0;
  auto result = MctsPlan(seeker, *q, mopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->plan, nullptr);
  EXPECT_EQ(result->plan->RelMask(), 0b111u);
  EXPECT_GT(result->plans_evaluated, 3);
  EXPECT_LT(result->planning_ms, 1000.0);
  EXPECT_GT(result->predicted_runtime_ms, 0.0);
}

TEST_F(CoreTest, MctsDeterministicForSeedAndRolloutCap) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;", *db_);
  ASSERT_TRUE(q.ok());
  MctsOptions mopts;
  mopts.time_budget_ms = 1e9;  // rollout-capped
  mopts.max_rollouts = 40;
  mopts.seed = 5;
  auto r1 = MctsPlan(seeker, *q, mopts);
  auto r2 = MctsPlan(seeker, *q, mopts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->predicted_runtime_ms, r2->predicted_runtime_ms);
  EXPECT_EQ(r1->plans_evaluated, r2->plans_evaluated);
}

TEST_F(CoreTest, MctsSingleRelationQuery) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql("SELECT COUNT(*) FROM a WHERE a.a2 = 2;", *db_);
  ASSERT_TRUE(q.ok());
  MctsOptions mopts;
  mopts.max_rollouts = 20;
  auto result = MctsPlan(seeker, *q, mopts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan->is_leaf());
}

TEST_F(CoreTest, GreedyPlannerProducesValidPlan) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;", *db_);
  ASSERT_TRUE(q.ok());
  auto result = GreedyPlan(seeker, *q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan->RelMask(), 0b111u);
}

// MctsPlan and GreedyPlan take every per-request setting from the
// PlanRequestOptions they are handed: the seed override, the batch
// evaluator and the cancel token.
TEST_F(CoreTest, PlannersHonourTheRequest) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;", *db_);
  ASSERT_TRUE(q.ok());
  MctsOptions search;
  search.time_budget_ms = 1e9;  // rollout-capped
  search.max_rollouts = 40;
  search.eval_batch = 4;

  // A hook that records every plan it scores, then scores it directly.
  std::vector<uint64_t> seen;
  PlanRequestOptions recording;
  recording.evaluate = [&](const query::Query& rq,
                           const std::vector<const query::PlanNode*>& plans) {
    for (const auto* p : plans) seen.push_back(PlanShapeHash(*p));
    return seeker.PredictPlansBatch(rq, plans);
  };
  const auto trace = [&](const MctsOptions& so, PlanRequestOptions ro) {
    seen.clear();
    ro.evaluate = recording.evaluate;
    auto r = MctsPlan(seeker, *q, so, ro);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(seen.size(), static_cast<size_t>(r->plans_evaluated));
    return std::make_pair(std::move(r).value(), seen);
  };

  // request.seed == setting search.seed, rollout for rollout.
  MctsOptions seeded = search;
  seeded.seed = 5;
  PlanRequestOptions with_seed;
  with_seed.seed = 5;
  const auto [by_request, request_trace] = trace(search, with_seed);
  const auto [by_search, search_trace] = trace(seeded, {});
  const auto [by_default, default_trace] = trace(search, {});
  EXPECT_EQ(request_trace, search_trace);
  EXPECT_NE(request_trace, default_trace) << "the seed override was ignored";
  EXPECT_EQ(by_request.plan->ToString(*db_, *q, false),
            by_search.plan->ToString(*db_, *q, false));

  // The hook sees exactly the plans_evaluated candidates and yields the
  // plan of the direct model call.
  auto direct = MctsPlan(seeker, *q, seeded);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(by_search.plan->ToString(*db_, *q, false),
            direct->plan->ToString(*db_, *q, false));
  EXPECT_EQ(by_search.predicted_runtime_ms, direct->predicted_runtime_ms);
  EXPECT_EQ(by_search.plans_evaluated, direct->plans_evaluated);

  seen.clear();
  auto greedy = GreedyPlan(seeker, *q, recording);
  auto greedy_direct = GreedyPlan(seeker, *q);
  ASSERT_TRUE(greedy.ok() && greedy_direct.ok());
  // The step candidates, plus the final score of the chosen plan.
  EXPECT_EQ(seen.size(), static_cast<size_t>(greedy->plans_evaluated) + 1);
  EXPECT_EQ(greedy->plan->ToString(*db_, *q, false),
            greedy_direct->plan->ToString(*db_, *q, false));
  EXPECT_EQ(greedy->predicted_runtime_ms, greedy_direct->predicted_runtime_ms);

  // A pre-cancelled request aborts before the hook is ever called.
  util::CancelToken cancel;
  cancel.Cancel();
  PlanRequestOptions cancelled = recording;
  cancelled.cancel = &cancel;
  seen.clear();
  const auto mcts_aborted = MctsPlan(seeker, *q, search, cancelled);
  const auto greedy_aborted = GreedyPlan(seeker, *q, cancelled);
  EXPECT_TRUE(mcts_aborted.status().IsAborted()) << mcts_aborted.status().ToString();
  EXPECT_TRUE(greedy_aborted.status().IsAborted())
      << greedy_aborted.status().ToString();
  EXPECT_TRUE(seen.empty());
}

TEST_F(CoreTest, SaveLoadRoundTripsPredictions) {
  QpSeeker seeker = MakeTrained();
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  const auto before = seeker.PredictPlan(q, *qep.plan);
  const std::string path = "/tmp/qps_core_model.bin";
  ASSERT_TRUE(seeker.Save(path).ok());

  QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke);
  QpSeeker fresh(*db_, *stats_, cfg, /*seed=*/777);  // different init
  ASSERT_TRUE(fresh.Load(path).ok());
  const auto after = fresh.PredictPlan(q, *qep.plan);
  EXPECT_NEAR(after.runtime_ms, before.runtime_ms,
              std::max(1e-3, before.runtime_ms * 0.01));
  EXPECT_NEAR(after.cardinality, before.cardinality,
              std::max(1e-3, before.cardinality * 0.01));
  std::remove(path.c_str());
  std::remove((path + ".norm").c_str());
}

TEST_F(CoreTest, BetaAffectsLatentSpread) {
  QpSeeker tight = MakeTrained(/*beta=*/1000.0, 10);
  QpSeeker loose = MakeTrained(/*beta=*/10.0, 10);
  // Higher beta pushes the posterior toward N(0,1): latent norms shrink.
  auto mean_norm = [&](QpSeeker& s) {
    double total = 0.0;
    int n = 0;
    for (size_t i = 0; i < dataset_.qeps.size() && n < 10; ++i, ++n) {
      const auto& qep = dataset_.qeps[i];
      auto z = s.LatentVector(dataset_.queries[static_cast<size_t>(qep.query_id)],
                              *qep.plan);
      double norm = 0.0;
      for (float v : z) norm += v * v;
      total += std::sqrt(norm);
    }
    return total / n;
  };
  EXPECT_LT(mean_norm(tight), mean_norm(loose) + 1.0);
}

}  // namespace
}  // namespace core
}  // namespace qps
