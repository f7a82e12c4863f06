// Copyright 2026 The QPSeeker Authors

#include <gtest/gtest.h>

#include <cmath>

#include "query/parser.h"
#include "storage/schemas.h"
#include "tabert/tabsketch.h"
#include "util/rng.h"

namespace qps {
namespace tabert {
namespace {

class TabSketchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(1);
    auto db = storage::BuildDatabase(storage::ToySpec(), 500, &rng);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    stats_ = stats::DatabaseStats::Analyze(*db_);
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<stats::DatabaseStats> stats_;
};

float Distance(const nn::Tensor& a, const nn::Tensor& b) {
  float d = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) {
    const float diff = a.at(i) - b.at(i);
    d += diff * diff;
  }
  return std::sqrt(d);
}

TEST_F(TabSketchTest, DimensionsFollowConfig) {
  TabSketch base(*db_, *stats_, TabSketchConfig{ModelSize::kBase, 1, 0});
  TabSketch large(*db_, *stats_, TabSketchConfig{ModelSize::kLarge, 1, 0});
  EXPECT_EQ(base.embedding_dim(), 48);
  EXPECT_EQ(large.embedding_dim(), 96);
  EXPECT_EQ(base.TableRepresentation(0).cols(), 48);
  EXPECT_EQ(large.TableRepresentation(0).cols(), 96);
}

TEST_F(TabSketchTest, DeterministicAcrossInstances) {
  TabSketch a(*db_, *stats_, {}, 42);
  TabSketch b(*db_, *stats_, {}, 42);
  const auto ra = a.ColumnRepresentation(0, 1, nullptr);
  const auto rb = b.ColumnRepresentation(0, 1, nullptr);
  EXPECT_NEAR(Distance(ra, rb), 0.0f, 1e-9f);
}

TEST_F(TabSketchTest, DifferentColumnsDiffer) {
  TabSketch ts(*db_, *stats_);
  const auto pk = ts.ColumnRepresentation(0, 0, nullptr);
  const auto attr = ts.ColumnRepresentation(0, 1, nullptr);
  EXPECT_GT(Distance(pk, attr), 0.1f);
}

TEST_F(TabSketchTest, PredicateConditioningChangesRepresentation) {
  TabSketch ts(*db_, *stats_);
  query::FilterPredicate selective;
  selective.rel = 0;
  selective.column = 1;
  selective.op = storage::CompareOp::kEq;
  selective.value = storage::Value::Int(0);
  query::FilterPredicate broad = selective;
  broad.op = storage::CompareOp::kGe;
  broad.value = storage::Value::Int(-1000000);

  const auto uncond = ts.ColumnRepresentation(0, 1, nullptr);
  const auto cond_sel = ts.ColumnRepresentation(0, 1, &selective);
  const auto cond_broad = ts.ColumnRepresentation(0, 1, &broad);
  EXPECT_GT(Distance(uncond, cond_sel), 0.05f);
  EXPECT_GT(Distance(cond_sel, cond_broad), 0.05f);
}

TEST_F(TabSketchTest, ScanDataRepresentationPicksFilteredColumn) {
  TabSketch ts(*db_, *stats_);
  auto q = query::ParseSql("SELECT COUNT(*) FROM a WHERE a.a2 < 3;", *db_);
  ASSERT_TRUE(q.ok());
  auto q_nofilter = query::ParseSql("SELECT COUNT(*) FROM a;", *db_);
  ASSERT_TRUE(q_nofilter.ok());
  const auto filtered = ts.ScanDataRepresentation(*q, 0);
  const auto table_cls = ts.ScanDataRepresentation(*q_nofilter, 0);
  EXPECT_GT(Distance(filtered, table_cls), 0.05f);
  // Unfiltered scan rep == table CLS.
  EXPECT_NEAR(Distance(table_cls, ts.TableRepresentation(0)), 0.0f, 1e-9f);
}

TEST_F(TabSketchTest, TimingScalesWithKAndSize) {
  // Fixed embedding_dim isolates the mixing-rounds cost.
  TabSketch k1(*db_, *stats_, TabSketchConfig{ModelSize::kBase, 1, 64});
  TabSketch k3(*db_, *stats_, TabSketchConfig{ModelSize::kBase, 3, 64});
  TabSketch large(*db_, *stats_, TabSketchConfig{ModelSize::kLarge, 3, 64});
  query::FilterPredicate pred;
  pred.rel = 0;
  pred.column = 1;
  pred.op = storage::CompareOp::kLe;
  pred.value = storage::Value::Int(3);
  constexpr int kReps = 300;
  for (int i = 0; i < kReps; ++i) {
    k1.ColumnRepresentation(0, 1, &pred);
    k3.ColumnRepresentation(0, 1, &pred);
    large.ColumnRepresentation(0, 1, &pred);
  }
  EXPECT_EQ(k1.num_calls(), kReps);
  // K=3 does 3x the mixing rounds; large does 9x. Counted, not timed: wall
  // clock is noisy under a loaded test run.
  EXPECT_EQ(k1.num_mixing_rounds(), kReps);
  EXPECT_EQ(k3.num_mixing_rounds(), 3 * k1.num_mixing_rounds());
  EXPECT_EQ(large.num_mixing_rounds(), 9 * k1.num_mixing_rounds());
}

TEST_F(TabSketchTest, CacheMakesUnconditionedCallsCheap) {
  TabSketch ts(*db_, *stats_);
  ts.TableRepresentation(1);
  const int64_t calls_after_first = ts.num_calls();
  ts.TableRepresentation(1);
  ts.TableRepresentation(1);
  EXPECT_EQ(ts.num_calls(), calls_after_first) << "cached calls must not recompute";
}

TEST_F(TabSketchTest, RepresentationsAreFinite) {
  TabSketch ts(*db_, *stats_);
  for (int t = 0; t < db_->num_tables(); ++t) {
    const auto rep = ts.TableRepresentation(t);
    for (int64_t i = 0; i < rep.size(); ++i) {
      EXPECT_TRUE(std::isfinite(rep.at(i)));
      EXPECT_LE(std::fabs(rep.at(i)), 1.0f) << "tanh-bounded";
    }
  }
}

}  // namespace
}  // namespace tabert
}  // namespace qps
