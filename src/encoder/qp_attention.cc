// Copyright 2026 The QPSeeker Authors

#include "encoder/qp_attention.h"

#include "util/trace.h"

namespace qps {
namespace encoder {

QpAttention::QpAttention(int query_dim, int node_dim, const EncoderConfig& config,
                         Rng* rng)
    : query_dim_(query_dim), node_dim_(node_dim) {
  attn_ = std::make_unique<nn::MultiHeadCrossAttention>(
      query_dim, node_dim, config.attn_heads, config.attn_head_dim,
      query_dim + node_dim, rng, "qp_attn");
  RegisterChild("attn", attn_.get());
}

nn::Var QpAttention::Combine(const nn::Var& query_emb, const PlanEncoder::Output& plan,
                             nn::Tensor* scores) const {
  QPS_TRACE_SPAN("encode.attention");
  if (!Attends(plan.node_outputs.size())) {
    if (scores != nullptr) *scores = nn::Tensor();
    return nn::ConcatCols({query_emb, plan.root});
  }
  return attn_->Forward(query_emb, plan.node_matrix, scores);
}

void QpAttention::ProjectQuery(const nn::Tensor& query_emb, nn::Tensor* q_heads) const {
  attn_->ProjectQuery(query_emb, q_heads);
}

void QpAttention::ProjectNodes(const nn::Tensor& node_rows, nn::Tensor* keys,
                               nn::Tensor* values) const {
  attn_->ProjectContext(node_rows, keys, values);
}

void QpAttention::AttendRows(const nn::Tensor& q_heads, const float* keys,
                             const float* values,
                             const std::vector<std::vector<int>>& plan_rows,
                             nn::Tensor* out, nn::Tensor* scores) const {
  attn_->AttendRows(q_heads, keys, values, plan_rows, out, scores);
}

}  // namespace encoder
}  // namespace qps
