// Copyright 2026 The QPSeeker Authors

#include "tabert/tabsketch.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/timer.h"

namespace qps {
namespace tabert {

namespace {

float SafeLog1p(double v) { return static_cast<float>(std::log1p(std::max(0.0, v))); }

/// Normalizes a value into [0,1] within [lo, hi].
float Norm(double v, double lo, double hi) {
  if (hi <= lo) return 0.5f;
  return static_cast<float>(std::clamp((v - lo) / (hi - lo), 0.0, 1.0));
}

}  // namespace

TabSketch::TabSketch(const storage::Database& db, const stats::DatabaseStats& stats,
                     TabSketchConfig config, uint64_t seed)
    : db_(db), stats_(stats), config_(config) {
  Rng rng(seed);
  const int dim = config_.ResolvedDim();
  // Fixed random projections play the role of pretrained weights: they are
  // data-independent, shared across databases, and never trained.
  projection_ = nn::Tensor::Randn(kRawFeatures, dim, &rng,
                                  1.0f / std::sqrt(static_cast<float>(kRawFeatures)));
  mixer_ = nn::Tensor::Randn(dim, dim, &rng, 1.0f / std::sqrt(static_cast<float>(dim)));

  // Unconditioned representations. A table's [CLS] is the mean of its
  // column representations, accumulated in column order.
  column_reps_.resize(static_cast<size_t>(db_.num_tables()));
  table_reps_.reserve(static_cast<size_t>(db_.num_tables()));
  for (int table = 0; table < db_.num_tables(); ++table) {
    const int ncols = static_cast<int>(db_.table(table).num_columns());
    const float denom = static_cast<float>(std::max(1, ncols));
    auto& reps = column_reps_[static_cast<size_t>(table)];
    nn::Tensor cls(1, dim);
    for (int c = 0; c < ncols; ++c) {
      reps.push_back(Project(RawColumnFeatures(table, c, nullptr)));
      for (int64_t j = 0; j < dim; ++j) cls(0, j) += reps.back()(0, j) / denom;
    }
    table_reps_.push_back(std::move(cls));
  }
  ResetTiming();
}

nn::Tensor TabSketch::RawColumnFeatures(int table, int column,
                                        const query::FilterPredicate* pred) const {
  const stats::ColumnStats& cs = stats_.column(table, column);
  nn::Tensor raw(1, kRawFeatures);
  int i = 0;
  // Datatype one-hot (TaBERT's datatype prediction pretraining signal).
  raw(0, i + static_cast<int>(cs.type)) = 1.0f;
  i += 3;
  raw(0, i++) = SafeLog1p(static_cast<double>(cs.row_count));
  raw(0, i++) = SafeLog1p(static_cast<double>(cs.distinct_count));
  raw(0, i++) = static_cast<float>(cs.row_count > 0
                                       ? static_cast<double>(cs.distinct_count) /
                                             static_cast<double>(cs.row_count)
                                       : 0.0);
  raw(0, i++) = Norm(cs.mean, cs.min, cs.max);
  raw(0, i++) = static_cast<float>(
      cs.stddev / std::max(1e-9, cs.max - cs.min));
  raw(0, i++) = SafeLog1p(std::fabs(cs.min));
  raw(0, i++) = SafeLog1p(std::fabs(cs.max));
  // MCV mass profile: top-4 fractions (value-distribution skew signal).
  for (int m = 0; m < 4; ++m) {
    raw(0, i++) = m < static_cast<int>(cs.mcv.fractions.size())
                      ? static_cast<float>(cs.mcv.fractions[static_cast<size_t>(m)])
                      : 0.0f;
  }
  // Histogram quantile shape: 16 normalized boundaries.
  const auto& bounds = cs.histogram.bounds();
  for (int b = 0; b < 16; ++b) {
    if (bounds.size() >= 2) {
      const size_t idx = (bounds.size() - 1) * static_cast<size_t>(b) / 15;
      raw(0, i++) = Norm(bounds[idx], cs.min, cs.max);
    } else {
      raw(0, i++) = 0.0f;
    }
  }
  // Predicate conditioning (the query-aware part of TaBERT's encoding).
  if (pred != nullptr) {
    const double sel = cs.Selectivity(pred->op, pred->value.AsDouble());
    raw(0, i++) = static_cast<float>(sel);
    raw(0, i++) = static_cast<float>(
        cs.histogram.ConditionalEntropy(pred->op, pred->value.AsDouble()));
    raw(0, i++) = Norm(pred->value.AsDouble(), cs.min, cs.max);
  } else {
    raw(0, i++) = 1.0f;  // unconditioned: selectivity 1
    raw(0, i++) = static_cast<float>(std::log(
        std::max(2, cs.histogram.num_buckets())));
    raw(0, i++) = 0.5f;
  }
  QPS_CHECK(i == kRawFeatures) << "feature count drift: " << i;
  return raw;
}

nn::Tensor TabSketch::Project(const nn::Tensor& raw) const {
  Timer timer;
  const int dim = config_.ResolvedDim();
  nn::Tensor h(1, dim);
  nn::Gemm(nn::GemmLayout::kNone, raw, projection_, &h, /*accumulate=*/false);
  for (int64_t j = 0; j < dim; ++j) h(0, j) = std::tanh(h(0, j));
  // K rounds of mixing emulate TaBERT's per-row vertical attention: K=3 and
  // the large model do proportionally more work (Figure 8 right).
  const int rounds = config_.k * (config_.size == ModelSize::kLarge ? 3 : 1);
  nn::Tensor tmp(1, dim);
  for (int r = 0; r < rounds; ++r) {
    nn::Gemm(nn::GemmLayout::kNone, h, mixer_, &tmp, /*accumulate=*/false);
    for (int64_t j = 0; j < dim; ++j) h(0, j) = std::tanh(tmp(0, j) + h(0, j));
  }
  total_time_ms_.fetch_add(timer.ElapsedMillis(), std::memory_order_relaxed);
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  num_mixing_rounds_.fetch_add(rounds, std::memory_order_relaxed);
  return h;
}

nn::Tensor TabSketch::ColumnRepresentation(int table, int column,
                                           const query::FilterPredicate* pred) const {
  if (pred == nullptr) {
    return column_reps_[static_cast<size_t>(table)][static_cast<size_t>(column)];
  }
  return Project(RawColumnFeatures(table, column, pred));
}

const nn::Tensor& TabSketch::TableRepresentation(int table) const {
  return table_reps_[static_cast<size_t>(table)];
}

nn::Tensor TabSketch::ScanDataRepresentation(const query::Query& q, int rel) const {
  const int table = q.relations[static_cast<size_t>(rel)].table_id;
  for (const auto& f : q.filters) {
    if (f.rel == rel) {
      return ColumnRepresentation(table, f.column, &f);
    }
  }
  return TableRepresentation(table);
}

}  // namespace tabert
}  // namespace qps
