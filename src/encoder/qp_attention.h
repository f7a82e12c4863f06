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
#include <vector>

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

  /// Whether a plan of `num_nodes` nodes goes through attention. A
  /// single-node plan does not: its QEP embedding is the query and root
  /// embeddings concatenated.
  static bool Attends(size_t num_nodes) { return num_nodes > 1; }

  /// Autograd-free inference for plans that Attends(), in three steps, so
  /// a caller scoring many plans of one query (core::EvalMemo) projects
  /// the query once and each distinct node row once, then attends every
  /// plan in one pass over its key/value rows, read in place by row id.
  /// Keys and values are row-major, one column per head dimension of every
  /// head; AttendRows writes one out_dim() row per plan, and `scores` (one
  /// plan only) as in Combine.
  void ProjectQuery(const nn::Tensor& query_emb, nn::Tensor* q_heads) const;
  void ProjectNodes(const nn::Tensor& node_rows, nn::Tensor* keys,
                    nn::Tensor* values) const;
  void AttendRows(const nn::Tensor& q_heads, const float* keys, const float* values,
                  const std::vector<std::vector<int>>& plan_rows, nn::Tensor* out,
                  nn::Tensor* scores = nullptr) const;

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
