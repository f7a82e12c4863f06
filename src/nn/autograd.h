// Copyright 2026 The QPSeeker Authors
//
// Reverse-mode automatic differentiation over Tensor. A computation builds a
// dynamic DAG of shared_ptr Nodes; Backward() runs the chain rule in reverse
// topological order, accumulating into each node's grad tensor.
//
// This is QPSeeker's substitute for PyTorch's autograd: the exact operation
// set the paper's architecture needs (matmul, elementwise nonlinearities,
// softmax, concat/slice, pooling, MSE, Gaussian KL, reparameterization).

#ifndef QPS_NN_AUTOGRAD_H_
#define QPS_NN_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace qps {
namespace nn {

class Node;
/// Handle to a node in the autodiff graph.
using Var = std::shared_ptr<Node>;

/// One vertex of the autodiff DAG.
class Node {
 public:
  Node(Tensor value, bool requires_grad)
      : value(std::move(value)), requires_grad(requires_grad) {}

  Tensor value;
  Tensor grad;  ///< allocated lazily on first backward pass
  bool requires_grad;
  std::vector<Var> parents;
  /// Propagates this->grad into parents' grads.
  std::function<void()> backward_fn;

  /// Ensures `grad` is allocated (zero-filled) with `value`'s shape.
  void EnsureGrad();
  /// Zero-fills the gradient if allocated.
  void ZeroGrad();
};

/// Creates a leaf. Parameters are leaves with requires_grad = true that the
/// caller keeps alive across steps; constants use requires_grad = false.
Var MakeLeaf(Tensor value, bool requires_grad = false);
Var Constant(Tensor value);
Var Parameter(Tensor value);

/// Runs reverse-mode differentiation from `root` (must be 1x1) with seed
/// gradient 1. Gradients accumulate; call ZeroGrad on parameters between
/// steps.
void Backward(const Var& root);

// ---- Operations -----------------------------------------------------------
// Each returns a fresh node; shapes are checked with QPS_CHECK.

Var MatMul(const Var& a, const Var& b);           ///< (m,k)@(k,n)
Var Add(const Var& a, const Var& b);              ///< same shape
Var AddRowBroadcast(const Var& x, const Var& b);  ///< (m,n) + (1,n) per row
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);              ///< elementwise
Var Scale(const Var& a, float s);
Var AddScalar(const Var& a, float s);
Var Neg(const Var& a);

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, float slope = 0.01f);
Var Exp(const Var& a);
Var Log(const Var& a);   ///< input clamped at 1e-12 for stability
Var Square(const Var& a);

/// Row-wise softmax.
Var SoftmaxRows(const Var& a);

/// Concatenation along columns; all inputs must share the row count.
Var ConcatCols(const std::vector<Var>& xs);
/// Concatenation along rows; all inputs must share the column count.
Var ConcatRows(const std::vector<Var>& xs);
/// Column slice [from, to).
Var SliceCols(const Var& a, int64_t from, int64_t to);
/// Row slice [from, to).
Var SliceRows(const Var& a, int64_t from, int64_t to);
Var Transpose(const Var& a);

/// Mean over rows weighted by a constant 0/1 mask (m x 1): output 1 x n.
/// Rows with mask 0 are ignored; if the mask is all-zero the output is zero.
Var MaskedMeanRows(const Var& x, const Tensor& mask);
/// The kernel behind MaskedMeanRows' forward, for autograd-free callers:
/// writes the masked mean of x's rows to out[0, x.cols()). Returns the
/// weight 1/count each kept row got (0 for an all-zero mask).
float MaskedMeanRowsInto(const Tensor& x, const Tensor& mask, float* out);
/// Unmasked mean over rows: output 1 x n.
Var MeanRows(const Var& x);

Var SumAll(const Var& a);   ///< 1x1
Var MeanAll(const Var& a);  ///< 1x1

/// Mean squared error against a constant target (1x1 output).
Var MseLoss(const Var& pred, const Tensor& target);
/// Elementwise-weighted MSE; weight must match pred's shape.
Var WeightedMseLoss(const Var& pred, const Tensor& target, const Tensor& weight);

/// KL( N(mu, exp(logvar)) || N(0,1) ) summed over dims (1x1 output):
/// 0.5 * sum(exp(logvar) + mu^2 - 1 - logvar).
Var GaussianKl(const Var& mu, const Var& logvar);

/// z = mu + exp(0.5 * logvar) * eps, with eps a constant noise tensor.
Var Reparameterize(const Var& mu, const Var& logvar, const Tensor& eps);

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_AUTOGRAD_H_
