// Copyright 2026 The QPSeeker Authors
//
// Plan encoder (paper §4.2): one shared LSTM cell applied bottom-up over
// the plan tree. Each node's input row is, in this order:
//   (a) the mean of the children's data vectors (zeros at a leaf);
//   (b) the mean of the children's stat predictions (zeros at a leaf);
//   (c) the node's own normalized EXPLAIN estimates (3);
//   (d) the physical operator one-hot;
//   (e) the TabSketch data representation: the scan's filtered column or
//       table [CLS] at a leaf, the mean [CLS] of the joined relations at a
//       join (zeros when use_data_repr is off);
//   (f) the subtree's relation one-hot sum.
// (a) and (b) are the node's output vector averaged over its children;
// (c)-(f), the node's own part, are written by one function for training
// and inference alike. Each node's output is a vector whose last three
// dimensions are the node's normalized cardinality / cost / runtime
// predictions; the root holds the whole plan's values.

#ifndef QPS_ENCODER_PLAN_ENCODER_H_
#define QPS_ENCODER_PLAN_ENCODER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "encoder/normalizer.h"
#include "encoder/query_encoder.h"
#include "tabert/tabsketch.h"

namespace qps {
namespace encoder {

class PlanEncoder : public nn::Module {
  /// Scan data representation per relation index, computed on first use.
  using ScanReps = std::unordered_map<int, nn::Tensor>;

 public:
  PlanEncoder(const storage::Database& db, const tabert::TabSketch& tabert,
              const EncoderConfig& config, Rng* rng);

  struct Output {
    /// Node output vectors in post-order; each 1 x node_out.
    std::vector<nn::Var> node_outputs;
    /// Pointers to the plan nodes in the same post-order.
    std::vector<const query::PlanNode*> nodes;
    /// Stacked matrix (num_nodes x node_out), attention context.
    nn::Var node_matrix;
    /// Root output (== node_outputs.back()).
    nn::Var root;
  };

  /// Encodes a plan. Leaf stat inputs come from plan.estimated (the "DB
  /// optimizer EXPLAIN estimates" of the paper), normalized by `norm`.
  Output Encode(const query::Query& q, const query::PlanNode& plan,
                const LabelNormalizer& norm) const;

  /// Every subtree one query has had encoded, with what it was encoded
  /// from: one row per distinct subtree holding its (h, c, output), plus
  /// the TabSketch scan representation of each relation. A row is keyed by
  /// the node's operator, scan relation, the bit patterns of its estimated
  /// triple and its children's rows, so two nodes share a row exactly when
  /// the encoder's inputs for their subtrees are identical. A memo belongs
  /// to one (query, model) pair; the caller that owns it makes sure of that
  /// (core::EvalMemo checks it).
  class Memo {
   public:
    Memo() = default;
    Memo(const Memo&) = delete;
    Memo& operator=(const Memo&) = delete;

    /// Distinct subtrees encoded so far.
    int64_t rows() const { return rows_; }
    /// Bytes of (h, c, output) those rows hold.
    int64_t bytes() const {
      return 3 * rows_ * width_ * static_cast<int64_t>(sizeof(float));
    }
    /// Output vector (node_out wide) of subtree row `row`.
    const float* output(int64_t row) const;
    /// Drops every subtree row; the scan representations stay.
    void ClearRows();

   private:
    friend class PlanEncoder;
    struct Key {
      int32_t op;
      int32_t rel;
      int32_t left, right;  ///< children's rows (-1 for leaves)
      uint64_t est[3];      ///< bit patterns of the estimated triple
      bool operator==(const Key& o) const;
    };
    struct KeyHash {
      size_t operator()(const Key& k) const;
    };
    int64_t rows_ = 0;
    int64_t width_ = 0;  ///< node_out, fixed by the first EncodeBatch
    std::unordered_map<Key, int, KeyHash> index_;
    std::vector<float> h_, c_, out_;  ///< rows_ x width_ each
    ScanReps scan_reps_;
  };

  /// Autograd-free batched encoding of many candidate plans of one query.
  /// Same math as Encode, but only subtrees `memo` does not hold yet are
  /// advanced: new rows at the same height (counted among new rows only)
  /// go through the shared LSTM cell and output projection as one batched
  /// GEMM. Every GEMM row is computed independently of the others in its
  /// batch, so a node's row is bit-identical whichever call and batch
  /// first encoded its subtree. (*rows)[p] lists the memo row of each node
  /// of plans[p] in post-order; the root's row is last. Adds the rows
  /// advanced to qps.encode.rows and the nodes served from the memo to
  /// qps.encode.rows_reused, once per call.
  void EncodeBatch(const query::Query& q,
                   const std::vector<const query::PlanNode*>& plans,
                   const LabelNormalizer& norm, Memo* memo,
                   std::vector<std::vector<int>>* rows) const;

  int node_out_dim() const { return config_.node_out; }
  int node_input_dim() const { return input_dim_; }
  int data_vec_dim() const { return config_.node_out - 3; }

 private:
  struct NodeState {
    nn::LstmCell::State lstm;
    nn::Var output;  ///< 1 x node_out
  };

  /// Writes the node's own input part, (c)-(f) of the layout above, into
  /// `own` (input_dim - node_out floats, zeroed by the caller).
  void WriteOwnInput(const query::Query& q, const query::PlanNode& node,
                     const LabelNormalizer& norm, ScanReps* scan_reps,
                     float* own) const;

  NodeState EncodeNode(const query::Query& q, const query::PlanNode& node,
                       const LabelNormalizer& norm, ScanReps* scan_reps,
                       Output* out) const;

  const tabert::TabSketch& tabert_;
  EncoderConfig config_;
  int input_dim_;
  std::unique_ptr<nn::LstmCell> cell_;
  std::unique_ptr<nn::Linear> out_proj_;
};

}  // namespace encoder
}  // namespace qps

#endif  // QPS_ENCODER_PLAN_ENCODER_H_
