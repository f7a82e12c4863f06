// Copyright 2026 The QPSeeker Authors
//
// Query encoder (paper §4.1, following MSCN): the relation set T_q and join
// set J_q are one-hot encoded against the schema, passed through per-set
// MLPs, mean-pooled with a presence mask, and concatenated into the query
// embedding vector. Set-based (not query-specific) so queries sharing
// relation/join combinations land near each other.

#ifndef QPS_ENCODER_QUERY_ENCODER_H_
#define QPS_ENCODER_QUERY_ENCODER_H_

#include <memory>

#include "nn/layers.h"
#include "query/query.h"

namespace qps {
namespace encoder {

/// Width configuration shared by the encoders. The paper's sizes (§6.2):
/// set MLPs 256/256 with 5 hidden layers, plan node output 950, 4 attention
/// heads of 256. `Ci()` scales these down for single-core runs.
struct EncoderConfig {
  int set_hidden = 64;
  int set_out = 32;           ///< per-set output; query embedding = 2x this
  int set_hidden_layers = 2;  ///< paper: 5
  int node_out = 64;          ///< plan node output vector; last 3 dims = stats
  int attn_heads = 4;
  int attn_head_dim = 16;
  /// Ablation: when false, the plan encoder zeroes the TabSketch data
  /// representations (queries-only model; bench_ablation_tabert).
  bool use_data_repr = true;

  static EncoderConfig Ci() { return EncoderConfig{}; }
  static EncoderConfig Smoke() { return EncoderConfig{16, 8, 1, 24, 2, 8}; }
  static EncoderConfig Paper() { return EncoderConfig{256, 256, 5, 950, 4, 256}; }
};

class QueryEncoder : public nn::Module {
 public:
  QueryEncoder(const storage::Database& db, const EncoderConfig& config, Rng* rng);

  /// Query embedding vector, 1 x out_dim().
  nn::Var Encode(const query::Query& q) const;

  /// Autograd-free inference path over the same sets and pooling kernel;
  /// writes 1 x out_dim() into *out. Computed once per planning run and
  /// reused for every candidate plan of the query.
  void EncodeTensor(const query::Query& q, nn::Tensor* out) const;

  int out_dim() const { return 2 * config_.set_out; }

 private:
  /// The two one-hot sets the encoder reads, each with its presence mask
  /// (rows x 1): relations by table id, joins by schema edge.
  struct Sets {
    nn::Tensor rel, rel_mask, join, join_mask;
  };
  Sets BuildSets(const query::Query& q) const;

  /// Join one-hot width: M schema joins + 1 ad-hoc bucket.
  int join_onehot_dim() const { return num_joins_ + 1; }

  EncoderConfig config_;
  int num_tables_;
  int num_joins_;
  std::unique_ptr<nn::Mlp> rel_mlp_;
  std::unique_ptr<nn::Mlp> join_mlp_;
};

}  // namespace encoder
}  // namespace qps

#endif  // QPS_ENCODER_QUERY_ENCODER_H_
