// Copyright 2026 The QPSeeker Authors
//
// Inference hot-path tests: tiled GEMM vs. a naive reference, batched
// model forward vs. the autograd reference path, fused multi-query
// forwards, concurrent forwards on one cold model, and the plan-prediction
// cache.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/mcts.h"
#include "core/plan_cache.h"
#include "core/qpseeker.h"
#include "encoder/plan_encoder.h"
#include "nn/tensor.h"
#include "obs/window.h"
#include "query/parser.h"
#include "serve/batch_rendezvous.h"
#include "storage/schemas.h"
#include "util/metrics.h"

namespace qps {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// Tiled GEMM vs. naive triple loop
// ---------------------------------------------------------------------------

nn::Tensor NaiveGemm(nn::GemmLayout layout, const nn::Tensor& a,
                     const nn::Tensor& b) {
  const int64_t m = layout == nn::GemmLayout::kTransA ? a.cols() : a.rows();
  const int64_t k = layout == nn::GemmLayout::kTransA ? a.rows() : a.cols();
  const int64_t n = layout == nn::GemmLayout::kTransB ? b.rows() : b.cols();
  nn::Tensor out(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = layout == nn::GemmLayout::kTransA ? a(p, i) : a(i, p);
        const float bv = layout == nn::GemmLayout::kTransB ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      out(i, j) = acc;
    }
  }
  return out;
}

void ExpectTensorsNear(const nn::Tensor& want, const nn::Tensor& got,
                       double tol) {
  ASSERT_EQ(want.rows(), got.rows());
  ASSERT_EQ(want.cols(), got.cols());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(want.at(i), got.at(i), tol + tol * std::abs(want.at(i)))
        << "flat index " << i;
  }
}

TEST(TiledGemmTest, MatchesNaiveAcrossLayoutsAndRaggedShapes) {
  Rng rng(11);
  // Sizes straddle the micro-kernel tile (4x16) and the k-block (256):
  // full tiles, ragged edges, GEMV-shaped m==1, and k spanning two blocks.
  const int64_t sizes[] = {1, 2, 3, 5, 16, 17, 33, 64};
  for (int64_t m : sizes) {
    for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{300}}) {
      for (int64_t n : sizes) {
        for (auto layout : {nn::GemmLayout::kNone, nn::GemmLayout::kTransA,
                            nn::GemmLayout::kTransB}) {
          const int64_t ar = layout == nn::GemmLayout::kTransA ? k : m;
          const int64_t ac = layout == nn::GemmLayout::kTransA ? m : k;
          const int64_t br = layout == nn::GemmLayout::kTransB ? n : k;
          const int64_t bc = layout == nn::GemmLayout::kTransB ? k : n;
          const nn::Tensor a = nn::Tensor::Randn(ar, ac, &rng);
          const nn::Tensor b = nn::Tensor::Randn(br, bc, &rng);
          nn::Tensor got(m, n);
          nn::Gemm(layout, a, b, &got, /*accumulate=*/false);
          ExpectTensorsNear(NaiveGemm(layout, a, b), got, 1e-4);
        }
      }
    }
  }
}

TEST(TiledGemmTest, AccumulateAddsIntoExistingOutput) {
  Rng rng(12);
  const nn::Tensor a = nn::Tensor::Randn(9, 37, &rng);
  const nn::Tensor b = nn::Tensor::Randn(37, 21, &rng);
  nn::Tensor got = nn::Tensor::Full(9, 21, 2.5f);
  nn::Gemm(nn::GemmLayout::kNone, a, b, &got, /*accumulate=*/true);
  const nn::Tensor ref = NaiveGemm(nn::GemmLayout::kNone, a, b);
  for (int64_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(ref.at(i) + 2.5f, got.at(i), 1e-3);
  }
}

// Row i of an m-row product must bit-equal the same row computed alone, for
// every m: the m == 1 GEMV path, full 4-row tiles and ragged tiles all
// accumulate each output element in one k-order. Batched inference, and
// the per-request encoding memo that computes a subtree's rows in whatever
// batch first meets it, rest on this. Shapes are the ones the model's
// inference GEMMs run at every scale: the tree-LSTM gates, the plan
// output projection and the per-head attention key/value projections.
TEST(TiledGemmTest, BatchRowsMatchSingleRowBitwise) {
  Rng db_rng(5);
  auto db = storage::BuildDatabase(storage::ImdbLikeSpec(), 40, &db_rng);
  ASSERT_TRUE(db.ok());
  const auto stats = stats::DatabaseStats::Analyze(**db);
  std::vector<std::pair<int64_t, int64_t>> shapes;  // (k, n)
  for (const encoder::EncoderConfig& cfg :
       {encoder::EncoderConfig::Smoke(), encoder::EncoderConfig::Ci(),
        encoder::EncoderConfig::Paper()}) {
    Rng init(6);
    const tabert::TabSketch sketch(**db, *stats);
    const encoder::PlanEncoder plan_encoder(**db, sketch, cfg, &init);
    const int64_t hid = cfg.node_out;
    shapes.emplace_back(plan_encoder.node_input_dim() + hid, 4 * hid);  // gates
    shapes.emplace_back(hid, hid);                                      // out_proj
    shapes.emplace_back(hid, cfg.attn_head_dim);                        // Wk, Wv
  }
  ASSERT_GT(shapes[6].first, 256) << "the paper-scale gates span two k-blocks";

  constexpr int64_t kMaxRows = 13;
  Rng rng(14);
  for (const auto& [k, n] : shapes) {
    for (auto layout : {nn::GemmLayout::kNone, nn::GemmLayout::kTransB}) {
      const nn::Tensor b = layout == nn::GemmLayout::kTransB
                               ? nn::Tensor::Randn(n, k, &rng)
                               : nn::Tensor::Randn(k, n, &rng);
      const nn::Tensor a = nn::Tensor::Randn(kMaxRows, k, &rng);
      // Each row alone (m == 1), then the first m rows together.
      nn::Tensor singles(kMaxRows, n), row(1, k), single(1, n);
      for (int64_t i = 0; i < kMaxRows; ++i) {
        std::memcpy(row.data(), a.data() + i * k, sizeof(float) * static_cast<size_t>(k));
        nn::Gemm(layout, row, b, &single, /*accumulate=*/false);
        std::memcpy(singles.data() + i * n, single.data(),
                    sizeof(float) * static_cast<size_t>(n));
      }
      for (int64_t m = 2; m <= kMaxRows; ++m) {
        nn::Tensor rows(m, k), batch(m, n);
        std::memcpy(rows.data(), a.data(), sizeof(float) * static_cast<size_t>(m * k));
        nn::Gemm(layout, rows, b, &batch, /*accumulate=*/false);
        for (int64_t i = 0; i < m; ++i) {
          ASSERT_EQ(std::memcmp(singles.data() + i * n, batch.data() + i * n,
                                sizeof(float) * static_cast<size_t>(n)),
                    0)
              << "k=" << k << " n=" << n << " m=" << m << " row " << i << " layout "
              << static_cast<int>(layout);
        }
      }
    }
  }
}

#if GTEST_HAS_DEATH_TEST
TEST(TiledGemmDeathTest, InnerDimensionMismatchReportsShapes) {
  const nn::Tensor a(2, 3);
  const nn::Tensor b(4, 5);
  nn::Tensor out(2, 5);
  EXPECT_DEATH(nn::Gemm(nn::GemmLayout::kNone, a, b, &out, false),
               "Gemm inner-dimension mismatch.*m=2 k=3/4 n=5");
}

TEST(TiledGemmDeathTest, OutputShapeMismatchReportsShapes) {
  const nn::Tensor a(2, 3);
  const nn::Tensor b(3, 5);
  nn::Tensor out(2, 4);
  EXPECT_DEATH(nn::Gemm(nn::GemmLayout::kNone, a, b, &out, false),
               "Gemm output shape mismatch.*m=2 k=3 n=5.*out is 2x4");
}
#endif

// ---------------------------------------------------------------------------
// Batched forward, prediction cache
// ---------------------------------------------------------------------------

class HotPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    auto db = storage::BuildDatabase(storage::ToySpec(), 300, &rng);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    stats_ = stats::DatabaseStats::Analyze(*db_);

    const char* templates[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < %d;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id AND a.a2 = %d;",
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
    ASSERT_GT(dataset_.qeps.size(), 10u);
  }

  QpSeeker MakeTrained(int epochs = 12,
                       QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke)) {
    QpSeeker seeker(*db_, *stats_, cfg, /*seed=*/3);
    TrainOptions topts;
    topts.epochs = epochs;
    topts.learning_rate = 2e-3f;
    topts.seed = 4;
    seeker.Train(dataset_, topts);
    return seeker;
  }

  /// Batched inference against the autograd reference, plan by plan. Both
  /// read their node inputs from the one featurizer; they may differ only
  /// in the rounding of the layers downstream of it.
  static void ExpectBatchedMatchesReference(const QpSeeker& seeker, const query::Query& q,
                                            const std::vector<const query::PlanNode*>& plans) {
    const auto batched = seeker.PredictPlansBatch(q, plans);
    ASSERT_EQ(batched.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      const auto ref = seeker.PredictPlanReference(q, *plans[i]);
      const double tol_card = 1e-5 * std::max(1.0, std::abs(ref.cardinality));
      const double tol_cost = 1e-5 * std::max(1.0, std::abs(ref.cost));
      const double tol_rt = 1e-5 * std::max(1.0, std::abs(ref.runtime_ms));
      EXPECT_NEAR(batched[i].cardinality, ref.cardinality, tol_card) << "plan " << i;
      EXPECT_NEAR(batched[i].cost, ref.cost, tol_cost) << "plan " << i;
      EXPECT_NEAR(batched[i].runtime_ms, ref.runtime_ms, tol_rt) << "plan " << i;
    }
  }

  /// All sampled plans that belong to the same query as qep[0].
  std::vector<const query::PlanNode*> PlansOfFirstQuery(int* query_id) const {
    *query_id = dataset_.qeps[0].query_id;
    std::vector<const query::PlanNode*> plans;
    for (const auto& qep : dataset_.qeps) {
      if (qep.query_id == *query_id) plans.push_back(qep.plan.get());
    }
    return plans;
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<stats::DatabaseStats> stats_;
  sampling::QepDataset dataset_;
};

// Every branch of the node featurizer, in the default model and under each
// ablation (TabSketch representation zeroed, plain concatenation instead of
// attention, deterministic head instead of the VAE): the candidate plans of
// one query, and one-node plans (a root leaf, which attention does not
// attend) over a filtered column and over a table [CLS].
TEST_F(HotPathTest, BatchedForwardMatchesAutogradReference) {
  int qid = 0;
  const auto plans = PlansOfFirstQuery(&qid);
  ASSERT_GE(plans.size(), 2u);
  std::vector<std::pair<query::Query, std::vector<query::PlanPtr>>> scans;
  for (const char* sql : {"SELECT COUNT(*) FROM a WHERE a.a2 < 4;", "SELECT COUNT(*) FROM b;"}) {
    auto q = query::ParseSql(sql, *db_);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::vector<query::PlanPtr> leaves;
    for (const query::OpType scan : query::ScanOps()) {
      leaves.push_back(query::BuildLeftDeepPlan(*q, {0}, {scan}, {}));
      ASSERT_TRUE(leaves.back() != nullptr && leaves.back()->is_leaf());
    }
    scans.emplace_back(std::move(q).value(), std::move(leaves));
  }
  for (const char* variant : {"default", "use_data_repr", "use_attention", "use_vae"}) {
    SCOPED_TRACE(variant);
    QpSeekerConfig cfg = QpSeekerConfig::ForScale(Scale::kSmoke);
    const std::string ablated = variant;
    if (ablated == "use_data_repr") cfg.encoder.use_data_repr = false;
    if (ablated == "use_attention") cfg.use_attention = false;
    if (ablated == "use_vae") cfg.use_vae = false;
    const QpSeeker seeker = MakeTrained(12, cfg);
    ExpectBatchedMatchesReference(seeker, dataset_.queries[static_cast<size_t>(qid)], plans);
    for (const auto& [q, leaves] : scans) {
      std::vector<const query::PlanNode*> one_node;
      for (const auto& leaf : leaves) one_node.push_back(leaf.get());
      ExpectBatchedMatchesReference(seeker, q, one_node);
    }
  }
}

TEST_F(HotPathTest, BatchOfOneMatchesPredictPlan) {
  QpSeeker seeker = MakeTrained();
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  const auto single = seeker.PredictPlan(q, *qep.plan);
  const auto batch = seeker.PredictPlansBatch(q, {qep.plan.get()});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].cardinality, single.cardinality);
  EXPECT_EQ(batch[0].cost, single.cost);
  EXPECT_EQ(batch[0].runtime_ms, single.runtime_ms);
}

TEST_F(HotPathTest, MultiQueryFusedForwardMatchesPerQueryBatches) {
  QpSeeker seeker = MakeTrained();

  // Group the sampled plans by owning query and fuse the first few queries
  // into one PredictPlansMulti call — the serving rendezvous path.
  std::vector<int> query_ids;
  std::vector<std::vector<const query::PlanNode*>> plans_by_query;
  for (const auto& qep : dataset_.qeps) {
    size_t slot = 0;
    for (; slot < query_ids.size(); ++slot) {
      if (query_ids[slot] == qep.query_id) break;
    }
    if (slot == query_ids.size()) {
      if (query_ids.size() == 4) continue;
      query_ids.push_back(qep.query_id);
      plans_by_query.emplace_back();
    }
    plans_by_query[slot].push_back(qep.plan.get());
  }
  ASSERT_GE(query_ids.size(), 2u);

  std::vector<PlanEvalRequest> requests;
  for (size_t r = 0; r < query_ids.size(); ++r) {
    requests.push_back(PlanEvalRequest{
        &dataset_.queries[static_cast<size_t>(query_ids[r])], plans_by_query[r]});
  }
  const auto fused = seeker.PredictPlansMulti(requests);
  ASSERT_EQ(fused.size(), requests.size());

  // Bit-identical to evaluating each query's batch on its own: the
  // determinism contract cross-query batching rests on.
  for (size_t r = 0; r < requests.size(); ++r) {
    const auto direct =
        seeker.PredictPlansBatch(*requests[r].query, requests[r].plans);
    ASSERT_EQ(fused[r].size(), direct.size()) << "request " << r;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(fused[r][i].cardinality, direct[i].cardinality)
          << "request " << r << " plan " << i;
      EXPECT_EQ(fused[r][i].cost, direct[i].cost)
          << "request " << r << " plan " << i;
      EXPECT_EQ(fused[r][i].runtime_ms, direct[i].runtime_ms)
          << "request " << r << " plan " << i;
    }
  }

  // A multi-call of one request degenerates to exactly PredictPlansBatch.
  const auto lone = seeker.PredictPlansMulti({requests[0]});
  const auto lone_direct =
      seeker.PredictPlansBatch(*requests[0].query, requests[0].plans);
  ASSERT_EQ(lone.size(), 1u);
  ASSERT_EQ(lone[0].size(), lone_direct.size());
  for (size_t i = 0; i < lone_direct.size(); ++i) {
    EXPECT_EQ(lone[0][i].runtime_ms, lone_direct[i].runtime_ms) << "plan " << i;
  }
}

// A const QpSeeker is safe to share across threads: a freshly loaded model
// that has never run a forward is hammered by PredictPlansMulti from
// several threads at once, and every thread gets exactly what serial
// evaluation on a second fresh load returns. Run under TSan in tier-1.
TEST_F(HotPathTest, ColdModelServesConcurrentForwardsBitIdentically) {
  const std::string path = ::testing::TempDir() + "/hotpath_cold_model.qps";
  ASSERT_TRUE(MakeTrained(4).Save(path).ok());
  auto load = [&] {
    auto model = std::make_unique<QpSeeker>(
        *db_, *stats_, QpSeekerConfig::ForScale(Scale::kSmoke), /*seed=*/3);
    EXPECT_TRUE(model->Load(path).ok());
    return model;
  };

  // Every query with all of its sampled plans: filtered and unfiltered
  // scans over every table.
  std::vector<PlanEvalRequest> requests(dataset_.queries.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    requests[r].query = &dataset_.queries[r];
  }
  for (const auto& qep : dataset_.qeps) {
    requests[static_cast<size_t>(qep.query_id)].plans.push_back(qep.plan.get());
  }
  const auto serial = load()->PredictPlansMulti(requests);

  const auto cold = load();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<query::NodeStats>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rotated request order, so threads start on different tables.
      std::vector<PlanEvalRequest> rotated;
      for (size_t r = 0; r < requests.size(); ++r) {
        rotated.push_back(requests[(r + static_cast<size_t>(t)) % requests.size()]);
      }
      got[static_cast<size_t>(t)] = cold->PredictPlansMulti(rotated);
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& out = got[static_cast<size_t>(t)];
    ASSERT_EQ(out.size(), requests.size());
    for (size_t k = 0; k < out.size(); ++k) {
      const auto& want = serial[(k + static_cast<size_t>(t)) % requests.size()];
      ASSERT_EQ(out[k].size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(out[k][i].cardinality, want[i].cardinality)
            << "thread " << t << " request " << k << " plan " << i;
        EXPECT_EQ(out[k][i].cost, want[i].cost)
            << "thread " << t << " request " << k << " plan " << i;
        EXPECT_EQ(out[k][i].runtime_ms, want[i].runtime_ms)
            << "thread " << t << " request " << k << " plan " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST_F(HotPathTest, MctsCacheDoesNotAlterPlanningResults) {
  QpSeeker seeker = MakeTrained();
  auto q = query::ParseSql(
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;", *db_);
  ASSERT_TRUE(q.ok());
  MctsOptions mopts;
  mopts.time_budget_ms = 1e9;
  mopts.max_rollouts = 30;
  mopts.seed = 7;
  mopts.eval_batch = 4;
  const auto cold = MctsPlan(seeker, *q, mopts);
  ASSERT_TRUE(cold.ok());

  seeker.EnableCache(1 << 20);
  const auto warm1 = MctsPlan(seeker, *q, mopts);
  const auto warm2 = MctsPlan(seeker, *q, mopts);  // mostly cache hits
  ASSERT_TRUE(warm1.ok() && warm2.ok());
  EXPECT_EQ(warm1->predicted_runtime_ms, cold->predicted_runtime_ms);
  EXPECT_EQ(warm2->predicted_runtime_ms, cold->predicted_runtime_ms);
  EXPECT_EQ(warm1->plans_evaluated, cold->plans_evaluated);
  EXPECT_EQ(warm2->plans_evaluated, cold->plans_evaluated);
  ASSERT_NE(seeker.cache(), nullptr);
  EXPECT_GT(seeker.cache()->GetStats().hits, 0);
}

TEST_F(HotPathTest, CacheHitReturnsIdenticalPrediction) {
  QpSeeker seeker = MakeTrained();
  seeker.EnableCache(1 << 20);
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  const auto miss = seeker.PredictPlan(q, *qep.plan);
  const auto s1 = seeker.cache()->GetStats();
  EXPECT_EQ(s1.misses, 1);
  EXPECT_EQ(s1.entries, 1);
  const auto hit = seeker.PredictPlan(q, *qep.plan);
  const auto s2 = seeker.cache()->GetStats();
  EXPECT_EQ(s2.hits, 1);
  EXPECT_EQ(hit.cardinality, miss.cardinality);
  EXPECT_EQ(hit.cost, miss.cost);
  EXPECT_EQ(hit.runtime_ms, miss.runtime_ms);
}

TEST_F(HotPathTest, TrainingInvalidatesCache) {
  QpSeeker seeker = MakeTrained(4);
  seeker.EnableCache(1 << 20);
  const auto& qep = dataset_.qeps[0];
  const auto& q = dataset_.queries[static_cast<size_t>(qep.query_id)];
  seeker.PredictPlan(q, *qep.plan);
  ASSERT_GT(seeker.cache()->GetStats().entries, 0);
  TrainOptions topts;
  topts.epochs = 1;
  seeker.Train(dataset_, topts);
  EXPECT_EQ(seeker.cache()->GetStats().entries, 0)
      << "stale predictions must not survive a weight change";
}

// ---------------------------------------------------------------------------
// Request-scoped evaluation memo
// ---------------------------------------------------------------------------

query::Query ParseOrDie(const char* sql, const storage::Database& db) {
  auto q = query::ParseSql(sql, db);
  QPS_CHECK(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

constexpr const char* kFourWay =
    "SELECT COUNT(*) FROM a, b, c, b b2 WHERE b.b1 = a.id AND c.c1 = b.id "
    "AND b2.b1 = a.id;";
constexpr const char* kThreeWay =
    "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;";

/// Sixteen 4-plan candidate batches of one query, shaped like one MCTS
/// request's evaluations: left-deep plans over three join orders with
/// randomly drawn operators, so prefixes recur within and across batches.
/// Batch 9 repeats a plan of batch 2, and batch 12 holds a one-node plan.
struct CandidateBatches {
  std::vector<query::PlanPtr> owned;
  std::vector<std::vector<const query::PlanNode*>> batches;
};

CandidateBatches MctsStyleBatches(const query::Query& q) {
  using query::OpType;
  CandidateBatches out;
  const auto orders = query::EnumerateJoinOrders(q, 3);
  QPS_CHECK(!orders.empty());
  Rng rng(21);
  const OpType scans[] = {OpType::kSeqScan, OpType::kIndexScan};
  const OpType joins[] = {OpType::kHashJoin, OpType::kNestedLoopJoin};
  for (int b = 0; b < 16; ++b) {
    std::vector<const query::PlanNode*> batch;
    for (int i = 0; i < 4; ++i) {
      if (b == 9 && i == 1) {
        out.owned.push_back(out.batches[2][3]->Clone());
      } else if (b == 12 && i == 2) {
        auto leaf = std::make_unique<query::PlanNode>();
        leaf->op = OpType::kSeqScan;
        leaf->rel = 0;
        out.owned.push_back(std::move(leaf));
      } else {
        const auto& order = orders[rng.UniformInt(orders.size())];
        std::vector<OpType> scan_ops, join_ops;
        for (size_t r = 0; r < order.size(); ++r) scan_ops.push_back(scans[rng.UniformInt(2)]);
        for (size_t r = 1; r < order.size(); ++r) join_ops.push_back(joins[rng.UniformInt(2)]);
        out.owned.push_back(query::BuildLeftDeepPlan(q, order, scan_ops, join_ops));
        QPS_CHECK(out.owned.back() != nullptr);
      }
      batch.push_back(out.owned.back().get());
    }
    out.batches.push_back(std::move(batch));
  }
  return out;
}

void ExpectBitwiseEqual(const std::vector<query::NodeStats>& want,
                        const std::vector<query::NodeStats>& got,
                        const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(query::NodeStats)), 0)
        << where << " plan " << i << ": want runtime " << want[i].runtime_ms
        << " got " << got[i].runtime_ms;
  }
}

/// Scores every batch through one memo, as one MCTS request does, and
/// checks each result against a fresh memo-less call.
void ExpectMemoMatchesFreshCalls(const QpSeeker& seeker, const query::Query& q,
                                 const std::string& label) {
  const CandidateBatches cands = MctsStyleBatches(q);
  EvalMemo memo;
  int64_t nodes = 0;
  for (size_t b = 0; b < cands.batches.size(); ++b) {
    const auto& batch = cands.batches[b];
    const auto with_memo = seeker.PredictPlansBatch(q, batch, &memo);
    const auto fresh = seeker.PredictPlansBatch(q, batch);
    ExpectBitwiseEqual(fresh, with_memo, label + " batch " + std::to_string(b));
    for (const auto* plan : batch) nodes += plan->NumNodes();
  }
  EXPECT_GT(memo.rows(), 0) << label;
  EXPECT_LT(2 * memo.rows(), nodes) << label << ": the batches share most subtrees";
}

TEST_F(HotPathTest, EvalMemoMatchesFreshCallsBitwise) {
  QpSeeker seeker = MakeTrained();
  const query::Query q = ParseOrDie(kFourWay, *db_);
  ExpectMemoMatchesFreshCalls(seeker, q, "f32");
  ASSERT_GT(seeker.QuantizeForInference(), 0);
  ASSERT_TRUE(seeker.quantized());
  ExpectMemoMatchesFreshCalls(seeker, q, "int8");
}

TEST_F(HotPathTest, EvalMemoMatchesFreshCallsUnderAblations) {
  const query::Query q = ParseOrDie(kFourWay, *db_);
  QpSeekerConfig no_attention = QpSeekerConfig::ForScale(Scale::kSmoke);
  no_attention.use_attention = false;
  ExpectMemoMatchesFreshCalls(MakeTrained(4, no_attention), q, "use_attention=false");
  QpSeekerConfig no_data = QpSeekerConfig::ForScale(Scale::kSmoke);
  no_data.encoder.use_data_repr = false;
  ExpectMemoMatchesFreshCalls(MakeTrained(4, no_data), q, "use_data_repr=false");
}

// Two requests, each with its own memo, evaluate their batches through one
// rendezvous that fuses them into shared flushes: each still receives
// exactly what memo-less calls return. Run under TSan in tier-1 (the
// flush leader writes the other request's memo).
TEST_F(HotPathTest, EvalMemosInSharedRendezvousFlushesMatchFreshCalls) {
  const QpSeeker seeker = MakeTrained();
  const query::Query queries[2] = {ParseOrDie(kFourWay, *db_),
                                   ParseOrDie(kThreeWay, *db_)};
  const CandidateBatches cands[2] = {MctsStyleBatches(queries[0]),
                                     MctsStyleBatches(queries[1])};
  serve::BatchRendezvousOptions opts;
  opts.max_batch = 2;
  opts.flush_timeout_ms = 2000.0;
  obs::OwnedHistogram batch_size("qps.serve.batch_size");
  obs::OwnedHistogram batch_plans("qps.serve.batch_plans");
  serve::BatchRendezvous rendezvous(&seeker, opts, &batch_size, &batch_plans);
  rendezvous.SetExpected(2);

  std::vector<std::vector<query::NodeStats>> got[2];
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      EvalMemo memo;
      for (const auto& batch : cands[r].batches) {
        got[r].push_back(rendezvous.Evaluate(queries[r], batch, &memo));
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto stats = serve::BatchRendezvous::Stats::Of(batch_size, batch_plans);
  EXPECT_EQ(stats.max_fused, 2) << "the two requests shared flushes";
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(got[r].size(), cands[r].batches.size());
    for (size_t b = 0; b < got[r].size(); ++b) {
      ExpectBitwiseEqual(seeker.PredictPlansBatch(queries[r], cands[r].batches[b]),
                         got[r][b],
                         "request " + std::to_string(r) + " batch " + std::to_string(b));
    }
  }
}

TEST_F(HotPathTest, RepeatedBatchInOneRequestAdvancesNoRows) {
  const QpSeeker seeker = MakeTrained(4);
  const query::Query q = ParseOrDie(kFourWay, *db_);
  const CandidateBatches cands = MctsStyleBatches(q);
  // A call evaluates each distinct shape once; count the nodes it walks.
  const auto& batch = cands.batches[0];
  std::unordered_set<uint64_t> shapes;
  int64_t nodes = 0;
  for (const auto* plan : batch) {
    if (shapes.insert(PlanShapeHash(*plan)).second) nodes += plan->NumNodes();
  }
  auto& reg = metrics::Registry::Global();
  const metrics::Counter* rows = reg.GetCounter("qps.encode.rows");
  const metrics::Counter* reused = reg.GetCounter("qps.encode.rows_reused");

  EvalMemo memo;
  const int64_t rows0 = rows->value();
  const int64_t reused0 = reused->value();
  const auto first = seeker.PredictPlansBatch(q, batch, &memo);
  const int64_t rows1 = rows->value();
  const int64_t reused1 = reused->value();
  EXPECT_EQ(rows1 - rows0, memo.rows());
  EXPECT_EQ((rows1 - rows0) + (reused1 - reused0), nodes);

  const auto second = seeker.PredictPlansBatch(q, batch, &memo);
  EXPECT_EQ(rows->value() - rows1, 0) << "the repeat advances no tree-LSTM row";
  EXPECT_EQ(reused->value() - reused1, nodes);
  ExpectBitwiseEqual(first, second, "repeat");
}

// A memo past its byte bound drops its subtree rows before the next call
// encodes: it stays within the bound plus one call's rows, and every result
// is still what a memo-less call returns.
TEST_F(HotPathTest, EvalMemoPastItsBoundStartsOverWithTheSameResults) {
  const QpSeeker seeker = MakeTrained(4);
  const query::Query q = ParseOrDie(kFourWay, *db_);
  const CandidateBatches cands = MctsStyleBatches(q);
  int64_t row_bytes = 0;
  {
    EvalMemo probe;
    seeker.PredictPlansBatch(q, cands.batches[0], &probe);
    ASSERT_GT(probe.rows(), 0);
    row_bytes = probe.bytes() / probe.rows();
  }
  const metrics::Counter* rows =
      metrics::Registry::Global().GetCounter("qps.encode.rows");
  const int64_t max_bytes = 8 * row_bytes;
  EvalMemo memo(max_bytes);
  int64_t advanced = 0;  ///< rows the memo-backed calls advanced
  for (size_t b = 0; b < cands.batches.size(); ++b) {
    const auto& batch = cands.batches[b];
    int64_t nodes = 0;
    for (const auto* plan : batch) nodes += plan->NumNodes();
    const int64_t rows0 = rows->value();
    const auto with_memo = seeker.PredictPlansBatch(q, batch, &memo);
    advanced += rows->value() - rows0;
    ExpectBitwiseEqual(seeker.PredictPlansBatch(q, batch), with_memo,
                       "bounded batch " + std::to_string(b));
    EXPECT_LE(memo.bytes(), max_bytes + nodes * row_bytes) << "batch " << b;
  }
  // A memo that never started over holds every row it advanced.
  EXPECT_GT(advanced, memo.rows()) << "the memo started over at least once";
}

#if GTEST_HAS_DEATH_TEST
using HotPathDeathTest = HotPathTest;

TEST_F(HotPathDeathTest, EvalMemoServesOneQueryAndOneModel) {
  const QpSeeker seeker = MakeTrained(2);
  const QpSeeker other = MakeTrained(2);
  const query::Query four = ParseOrDie(kFourWay, *db_);
  const query::Query three = ParseOrDie(kThreeWay, *db_);
  const CandidateBatches four_plans = MctsStyleBatches(four);
  const CandidateBatches three_plans = MctsStyleBatches(three);
  EXPECT_DEATH(
      {
        EvalMemo memo;
        seeker.PredictPlansBatch(four, four_plans.batches[0], &memo);
        seeker.PredictPlansBatch(three, three_plans.batches[0], &memo);
      },
      "EvalMemo reused for a different query");
  EXPECT_DEATH(
      {
        EvalMemo memo;
        seeker.PredictPlansBatch(four, four_plans.batches[0], &memo);
        other.PredictPlansBatch(four, four_plans.batches[1], &memo);
      },
      "EvalMemo reused for a different model");
}
#endif

TEST(PlanPredictionCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  PlanPredictionCache cache(/*capacity_bytes=*/2 * 96);  // two entries
  query::NodeStats s;
  s.cardinality = 1.0;
  cache.Insert(1, 1, s);
  cache.Insert(1, 2, s);
  query::NodeStats out;
  ASSERT_TRUE(cache.Lookup(1, 1, &out));  // refresh (1,1): (1,2) becomes LRU
  cache.Insert(1, 3, s);                  // evicts (1,2)
  EXPECT_TRUE(cache.Lookup(1, 1, &out));
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  EXPECT_TRUE(cache.Lookup(1, 3, &out));
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(PlanPredictionCacheTest, ShapeHashDistinguishesStructure) {
  auto leaf = [](int rel) {
    auto p = std::make_unique<query::PlanNode>();
    p->op = query::OpType::kSeqScan;
    p->rel = rel;
    return p;
  };
  auto join = [](query::PlanPtr l, query::PlanPtr r) {
    auto p = std::make_unique<query::PlanNode>();
    p->op = query::OpType::kHashJoin;
    p->left = std::move(l);
    p->right = std::move(r);
    return p;
  };
  const auto ab = join(leaf(0), leaf(1));
  const auto ba = join(leaf(1), leaf(0));
  const auto ab2 = join(leaf(0), leaf(1));
  EXPECT_NE(PlanShapeHash(*ab), PlanShapeHash(*ba)) << "children are ordered";
  EXPECT_EQ(PlanShapeHash(*ab), PlanShapeHash(*ab2));
  auto ab_merge = join(leaf(0), leaf(1));
  ab_merge->op = query::OpType::kMergeJoin;
  EXPECT_NE(PlanShapeHash(*ab), PlanShapeHash(*ab_merge));
}

}  // namespace
}  // namespace core
}  // namespace qps
