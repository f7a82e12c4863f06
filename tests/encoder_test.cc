// Copyright 2026 The QPSeeker Authors

#include <gtest/gtest.h>

#include "encoder/qp_attention.h"
#include "query/parser.h"
#include "storage/schemas.h"
#include "util/rng.h"

namespace qps {
namespace encoder {
namespace {

class EncoderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    auto db = storage::BuildDatabase(storage::ToySpec(), 300, &rng);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    stats_ = stats::DatabaseStats::Analyze(*db_);
    tabert_ = std::make_unique<tabert::TabSketch>(*db_, *stats_);
    Rng wrng(2);
    config_ = EncoderConfig::Smoke();
    query_encoder_ = std::make_unique<QueryEncoder>(*db_, config_, &wrng);
    plan_encoder_ = std::make_unique<PlanEncoder>(*db_, *tabert_, config_, &wrng);
    attention_ = std::make_unique<QpAttention>(query_encoder_->out_dim(),
                                               plan_encoder_->node_out_dim(),
                                               config_, &wrng);
    norm_.Finalize();  // identity-ish normalizer for encoding tests
  }

  query::Query Parse(const std::string& sql) {
    auto q = query::ParseSql(sql, *db_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  query::PlanPtr MakePlan(const query::Query& q) {
    std::vector<query::OpType> scans(static_cast<size_t>(q.num_relations()),
                                     query::OpType::kSeqScan);
    std::vector<query::OpType> joins(
        q.num_relations() > 0 ? static_cast<size_t>(q.num_relations() - 1) : 0,
        query::OpType::kHashJoin);
    std::vector<int> order;
    for (const auto& o : query::EnumerateJoinOrders(q, 1)) order = o;
    return BuildLeftDeepPlan(q, order, scans, joins);
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<stats::DatabaseStats> stats_;
  std::unique_ptr<tabert::TabSketch> tabert_;
  EncoderConfig config_;
  std::unique_ptr<QueryEncoder> query_encoder_;
  std::unique_ptr<PlanEncoder> plan_encoder_;
  std::unique_ptr<QpAttention> attention_;
  LabelNormalizer norm_;
};

TEST_F(EncoderTest, QueryEmbeddingDimensions) {
  auto q = Parse("SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;");
  nn::Var emb = query_encoder_->Encode(q);
  EXPECT_EQ(emb->value.rows(), 1);
  EXPECT_EQ(emb->value.cols(), query_encoder_->out_dim());
}

TEST_F(EncoderTest, JoinFreeQueryHasZeroJoinHalf) {
  auto q = Parse("SELECT COUNT(*) FROM a WHERE a.a2 = 1;");
  nn::Var emb = query_encoder_->Encode(q);
  // Second half (join set pooled through an all-zero mask) must be zero.
  for (int j = config_.set_out; j < 2 * config_.set_out; ++j) {
    EXPECT_FLOAT_EQ(emb->value(0, j), 0.0f);
  }
}

TEST_F(EncoderTest, DifferentRelationSetsGiveDifferentEmbeddings) {
  auto q1 = Parse("SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;");
  auto q2 = Parse("SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;");
  nn::Var e1 = query_encoder_->Encode(q1);
  nn::Var e2 = query_encoder_->Encode(q2);
  float dist = 0.0f;
  for (int64_t i = 0; i < e1->value.size(); ++i) {
    dist += std::fabs(e1->value.at(i) - e2->value.at(i));
  }
  EXPECT_GT(dist, 0.01f);
}

TEST_F(EncoderTest, SameSetsSameEmbedding) {
  // Set semantics: join order in the WHERE clause must not matter.
  auto q1 = Parse("SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;");
  auto q2 = Parse("SELECT COUNT(*) FROM a, b, c WHERE c.c1 = b.id AND b.b1 = a.id;");
  nn::Var e1 = query_encoder_->Encode(q1);
  nn::Var e2 = query_encoder_->Encode(q2);
  for (int64_t i = 0; i < e1->value.size(); ++i) {
    EXPECT_NEAR(e1->value.at(i), e2->value.at(i), 1e-6f);
  }
}

TEST_F(EncoderTest, PlanEncoderProducesPerNodeOutputs) {
  auto q = Parse("SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;");
  auto plan = MakePlan(q);
  ASSERT_NE(plan, nullptr);
  auto out = plan_encoder_->Encode(q, *plan, norm_);
  EXPECT_EQ(out.node_outputs.size(), 5u);
  EXPECT_EQ(out.nodes.size(), 5u);
  EXPECT_EQ(out.node_matrix->value.rows(), 5);
  EXPECT_EQ(out.node_matrix->value.cols(), config_.node_out);
  EXPECT_EQ(out.root->value.cols(), config_.node_out);
  // Post-order: root is last.
  EXPECT_EQ(out.nodes.back(), plan.get());
}

TEST_F(EncoderTest, PlanEncoderSensitiveToOperators) {
  auto q = Parse("SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id;");
  auto p1 = MakePlan(q);
  auto p2 = p1->Clone();
  p2->op = query::OpType::kNestedLoopJoin;
  auto o1 = plan_encoder_->Encode(q, *p1, norm_);
  auto o2 = plan_encoder_->Encode(q, *p2, norm_);
  float dist = 0.0f;
  for (int64_t i = 0; i < o1.root->value.size(); ++i) {
    dist += std::fabs(o1.root->value.at(i) - o2.root->value.at(i));
  }
  EXPECT_GT(dist, 1e-4f);
}

TEST_F(EncoderTest, GradientsReachEncoderParameters) {
  auto q = Parse("SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;");
  auto plan = MakePlan(q);
  nn::Var qe = query_encoder_->Encode(q);
  auto po = plan_encoder_->Encode(q, *plan, norm_);
  nn::Var combined = attention_->Combine(qe, po);
  query_encoder_->ZeroGrad();
  plan_encoder_->ZeroGrad();
  attention_->ZeroGrad();
  nn::Backward(nn::SumAll(nn::Square(combined)));
  int nonzero = 0, total = 0;
  for (const auto& mod :
       std::vector<const nn::Module*>{query_encoder_.get(), plan_encoder_.get(),
                                      attention_.get()}) {
    for (const auto& p : mod->Parameters()) {
      ++total;
      nonzero += p.var->grad.SameShape(p.var->value) &&
                 p.var->grad.FrobeniusNorm() > 0.0f;
    }
  }
  // All parameters receive gradient (bias of unused ad-hoc join bucket may
  // not, via relu dead zones; demand the vast majority).
  EXPECT_GT(nonzero, total * 7 / 10) << nonzero << "/" << total;
}

TEST_F(EncoderTest, AttentionOutputDimIsSumOfEmbeddings) {
  auto q = Parse("SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;");
  auto plan = MakePlan(q);
  nn::Var qe = query_encoder_->Encode(q);
  auto po = plan_encoder_->Encode(q, *plan, norm_);
  nn::Tensor scores;
  nn::Var combined = attention_->Combine(qe, po, &scores);
  EXPECT_EQ(combined->value.cols(),
            query_encoder_->out_dim() + plan_encoder_->node_out_dim());
  // Multi-node: real attention scores exist, one row per head.
  EXPECT_EQ(scores.rows(), config_.attn_heads);
  EXPECT_EQ(scores.cols(), 5);
}

TEST_F(EncoderTest, SingleNodePlanFallsBackToConcat) {
  auto q = Parse("SELECT COUNT(*) FROM a WHERE a.a2 = 1;");
  auto plan = MakePlan(q);
  ASSERT_TRUE(plan->is_leaf());
  nn::Var qe = query_encoder_->Encode(q);
  auto po = plan_encoder_->Encode(q, *plan, norm_);
  nn::Var combined = attention_->Combine(qe, po);
  // Concatenation: first part equals the query embedding exactly.
  for (int j = 0; j < query_encoder_->out_dim(); ++j) {
    EXPECT_FLOAT_EQ(combined->value(0, j), qe->value(0, j));
  }
}

TEST(NormalizerTest, RoundTrip) {
  LabelNormalizer norm;
  query::PlanNode node;
  node.actual.cardinality = 1e6;
  node.actual.cost = 5e4;
  node.actual.runtime_ms = 1.5e3;
  norm.Observe(node);
  norm.Finalize();
  const auto n3 = norm.Normalize(node.actual);
  for (float v : n3) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  const auto back = norm.Denormalize(n3[0], n3[1], n3[2]);
  EXPECT_NEAR(back.cardinality, 1e6, 1e6 * 0.01);
  EXPECT_NEAR(back.cost, 5e4, 5e4 * 0.01);
  EXPECT_NEAR(back.runtime_ms, 1.5e3, 1.5e3 * 0.01);
}

TEST(NormalizerTest, MaxMapsToOne) {
  LabelNormalizer norm;
  query::PlanNode node;
  node.actual.cardinality = 100.0;
  node.actual.cost = 10.0;
  node.actual.runtime_ms = 7.0;
  norm.Observe(node);
  norm.Finalize();
  const auto n3 = norm.Normalize(node.actual);
  EXPECT_NEAR(n3[0], 1.0f, 1e-6f);
  EXPECT_NEAR(n3[1], 1.0f, 1e-6f);
  EXPECT_NEAR(n3[2], 1.0f, 1e-6f);
}

TEST(NormalizerTest, ZeroIsZero) {
  LabelNormalizer norm;
  query::PlanNode node;
  node.actual.cardinality = 50.0;
  norm.Observe(node);
  norm.Finalize();
  query::NodeStats zero;
  const auto n3 = norm.Normalize(zero);
  EXPECT_FLOAT_EQ(n3[0], 0.0f);
  const auto back = norm.Denormalize(0.0f, 0.0f, 0.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(back.cardinality), 0.0f);
}

}  // namespace
}  // namespace encoder
}  // namespace qps
