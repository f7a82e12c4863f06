// Copyright 2026 The QPSeeker Authors

#include "encoder/qp_attention.h"

#include <cstring>

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
  if (plan.node_outputs.size() <= 1) {
    // Single-operator plan: attention over one node is a no-op; concatenate.
    if (scores != nullptr) *scores = nn::Tensor();
    return nn::ConcatCols({query_emb, plan.root});
  }
  return attn_->Forward(query_emb, plan.node_matrix, scores);
}

void QpAttention::CombineTensor(const nn::Tensor& query_emb,
                                const nn::Tensor& node_matrix, nn::Tensor* out,
                                nn::Tensor* scores) const {
  QPS_TRACE_SPAN("encode.attention");
  if (node_matrix.rows() <= 1) {
    if (scores != nullptr) *scores = nn::Tensor();
    if (out->rows() != 1 || out->cols() != out_dim()) *out = nn::Tensor(1, out_dim());
    std::memcpy(out->data(), query_emb.data(),
                sizeof(float) * static_cast<size_t>(query_dim_));
    std::memcpy(out->data() + query_dim_, node_matrix.data(),
                sizeof(float) * static_cast<size_t>(node_dim_));
    return;
  }
  attn_->ForwardTensor(query_emb, node_matrix, out, scores);
}

}  // namespace encoder
}  // namespace qps
