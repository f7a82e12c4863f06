// Copyright 2026 The QPSeeker Authors

#include "encoder/query_encoder.h"

#include <algorithm>
#include <utility>

#include "util/trace.h"

namespace qps {
namespace encoder {

using nn::Tensor;
using nn::Var;

QueryEncoder::QueryEncoder(const storage::Database& db, const EncoderConfig& config,
                           Rng* rng)
    : config_(config),
      num_tables_(db.num_tables()),
      num_joins_(static_cast<int>(db.join_edges().size())) {
  rel_mlp_ = std::make_unique<nn::Mlp>(num_tables_, config_.set_hidden,
                                       config_.set_out, config_.set_hidden_layers,
                                       rng, nn::Activation::kRelu,
                                       nn::Activation::kRelu, "rel");
  join_mlp_ = std::make_unique<nn::Mlp>(join_onehot_dim(), config_.set_hidden,
                                        config_.set_out, config_.set_hidden_layers,
                                        rng, nn::Activation::kRelu,
                                        nn::Activation::kRelu, "join");
  RegisterChild("rel", rel_mlp_.get());
  RegisterChild("join", join_mlp_.get());
}

QueryEncoder::Sets QueryEncoder::BuildSets(const query::Query& q) const {
  const int nrel = std::max(1, q.num_relations());
  const int njoin = std::max(1, static_cast<int>(q.joins.size()));
  Sets sets{Tensor(nrel, num_tables_), Tensor(nrel, 1), Tensor(njoin, join_onehot_dim()),
            Tensor(njoin, 1)};
  // Relation set: one row per relation instance, one-hot by table id.
  for (int r = 0; r < q.num_relations(); ++r) {
    sets.rel(r, q.relations[static_cast<size_t>(r)].table_id) = 1.0f;
    sets.rel_mask(r, 0) = 1.0f;
  }
  // Join set: one row per join predicate, one-hot by schema edge (the last
  // bucket collects ad-hoc joins not in the FK graph). Queries without
  // joins pool to zero through an all-zero mask (the paper feeds an all-
  // zeros matrix).
  for (size_t j = 0; j < q.joins.size(); ++j) {
    const int edge = q.joins[j].schema_edge;
    sets.join(static_cast<int64_t>(j), edge >= 0 ? edge : num_joins_) = 1.0f;
    sets.join_mask(static_cast<int64_t>(j), 0) = 1.0f;
  }
  return sets;
}

Var QueryEncoder::Encode(const query::Query& q) const {
  QPS_TRACE_SPAN("encode.query");
  Sets sets = BuildSets(q);
  Var rel_pooled = nn::MaskedMeanRows(rel_mlp_->Forward(nn::Constant(std::move(sets.rel))),
                                      sets.rel_mask);
  Var join_pooled = nn::MaskedMeanRows(
      join_mlp_->Forward(nn::Constant(std::move(sets.join))), sets.join_mask);
  return nn::ConcatCols({rel_pooled, join_pooled});
}

void QueryEncoder::EncodeTensor(const query::Query& q, Tensor* out) const {
  QPS_TRACE_SPAN("encode.query");
  const int out_cols = out_dim();
  if (out->rows() != 1 || out->cols() != out_cols) *out = Tensor(1, out_cols);
  const Sets sets = BuildSets(q);
  Tensor rel_out, join_out;
  rel_mlp_->ForwardTensor(sets.rel, &rel_out);
  nn::MaskedMeanRowsInto(rel_out, sets.rel_mask, out->data());
  join_mlp_->ForwardTensor(sets.join, &join_out);
  nn::MaskedMeanRowsInto(join_out, sets.join_mask, out->data() + config_.set_out);
}

}  // namespace encoder
}  // namespace qps
