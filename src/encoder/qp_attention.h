// Copyright 2026 The QPSeeker Authors
//
// QPAttention (paper §4.3): multi-head cross-attention between the query
// embedding and the plan's node output vectors, scoring which plan nodes
// impact the query's estimates the most. For single-operator plans (no
// joins) attention adds nothing and the combination degenerates to plain
// concatenation, exactly as the paper specifies.

#ifndef QPS_ENCODER_QP_ATTENTION_H_
#define QPS_ENCODER_QP_ATTENTION_H_

#include <memory>

#include "encoder/plan_encoder.h"

namespace qps {
namespace encoder {

class QpAttention : public nn::Module {
 public:
  QpAttention(int query_dim, int node_dim, const EncoderConfig& config, Rng* rng);

  /// QEP embedding: 1 x out_dim(). When `scores` is non-null it receives
  /// the per-head attention weights over the plan's nodes (heads x n), or
  /// an empty tensor for a single-node plan, which skips attention.
  nn::Var Combine(const nn::Var& query_emb, const PlanEncoder::Output& plan,
                  nn::Tensor* scores = nullptr) const;

  /// Autograd-free inference path over a (num_nodes x node_dim) node
  /// matrix; same degenerate-concat rule for single-node plans.
  void CombineTensor(const nn::Tensor& query_emb, const nn::Tensor& node_matrix,
                     nn::Tensor* out, nn::Tensor* scores = nullptr) const;

  /// Output width == query embedding + plan node vector (paper: "a vector
  /// with size equal to the sum of the query and plan embedding vectors").
  int out_dim() const { return query_dim_ + node_dim_; }

 private:
  int query_dim_;
  int node_dim_;
  std::unique_ptr<nn::MultiHeadCrossAttention> attn_;
};

}  // namespace encoder
}  // namespace qps

#endif  // QPS_ENCODER_QP_ATTENTION_H_
