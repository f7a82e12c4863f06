// Copyright 2026 The QPSeeker Authors
//
// Dense row-major float32 matrix. All neural components in QPSeeker operate
// on rank-2 tensors; vectors are represented as 1 x n rows.

#ifndef QPS_NN_TENSOR_H_
#define QPS_NN_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace qps {
namespace nn {

/// A row-major rows x cols float matrix with value semantics.
class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}
  Tensor(int64_t rows, int64_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows * cols), fill) {}

  /// Builds a 1 x n row vector from values.
  static Tensor Row(const std::vector<float>& values);

  /// All-zeros / all-ones / constant factories.
  static Tensor Zeros(int64_t rows, int64_t cols) { return Tensor(rows, cols, 0.0f); }
  static Tensor Ones(int64_t rows, int64_t cols) { return Tensor(rows, cols, 1.0f); }
  static Tensor Full(int64_t rows, int64_t cols, float v) { return Tensor(rows, cols, v); }

  /// i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(int64_t rows, int64_t cols, Rng* rng, float stddev = 1.0f);

  /// Uniform(-limit, limit) entries (for Xavier/He init).
  static Tensor RandUniform(int64_t rows, int64_t cols, Rng* rng, float limit);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  float& operator()(int64_t r, int64_t c) { return data_[static_cast<size_t>(r * cols_ + c)]; }
  float operator()(int64_t r, int64_t c) const {
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  float& at(int64_t i) { return data_[static_cast<size_t>(i)]; }
  float at(int64_t i) const { return data_[static_cast<size_t>(i)]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// In-place helpers used by optimizers and gradient accumulation.
  void Fill(float v);
  void AddInPlace(const Tensor& other);               ///< this += other
  void AddScaledInPlace(const Tensor& other, float a);  ///< this += a * other
  void ScaleInPlace(float a);                         ///< this *= a

  /// True when no entry is NaN or infinite — the guarded planner's sentinel
  /// against a diverged forward pass.
  bool AllFinite() const;

  /// Frobenius norm and sums, for diagnostics and gradient clipping.
  float FrobeniusNorm() const;
  float Sum() const;
  float Mean() const { return size() > 0 ? Sum() / static_cast<float>(size()) : 0.0f; }
  float Max() const;

  /// Flattened copy of the data.
  std::vector<float> ToVector() const { return {data_.begin(), data_.end()}; }

  std::string DebugString(int64_t max_entries = 8) const;

 private:
  int64_t rows_;
  int64_t cols_;
  // 32-byte aligned so SIMD kernels can use aligned vector loads on tensor
  // data; the GEMM drivers assert this (util::IsAligned).
  util::AlignedVector<float> data_;
};

/// Operand layout for Gemm: which input is read transposed. (Transposing
/// both is never needed by the autodiff rules.)
enum class GemmLayout { kNone, kTransA, kTransB };

/// General matrix multiply, the one hot-path kernel every variant routes
/// through: out (+)= op(a) @ op(b), register-tiled and cache-blocked.
/// Shape errors fail fast with the offending m/k/n values in the message.
/// Calls above a small work threshold record the `qps.nn.gemm_ms`
/// histogram.
void Gemm(GemmLayout layout, const Tensor& a, const Tensor& b, Tensor* out,
          bool accumulate);

/// Gathered products for attention over rows of a shared row-major matrix
/// `base` (row stride `stride`), read in place through row ids. Each
/// rounds exactly like the Gemm it replaces, so the results are
/// bit-identical to gathering the rows into a tensor first:
///
/// out[i] = q[0..d) . base[rows[i] * stride + 0..d), for i < n: the one-row
/// kTransB Gemm q @ K^T.
void GatherDots(const float* q, int64_t d, const float* base, int64_t stride,
                const int* rows, int64_t n, float* out);
/// out[j] = sum over i < n of w[i] * base[rows[i] * stride + j], for j < d:
/// the one-row kNone Gemm w @ V.
void GatherWeightedSum(const float* w, const float* base, int64_t stride,
                       const int* rows, int64_t n, int64_t d, float* out);

/// The sigmoid and tanh of every model layer, training and inference
/// alike: branch-free span kernels over a Cephes-style exp, within 4e-7
/// relative error of the exact function on [-20, 20] (DESIGN §9
/// Activations). An element's result depends on its value alone, never on
/// its position in the span or the span's length. NaN stays NaN; every
/// other input, infinities included, maps into [0, 1] (sigmoid) or
/// [-1, 1] (tanh).
void SigmoidInPlace(float* x, int64_t n);
void TanhInPlace(float* x, int64_t n);

/// In-place elementwise helpers for the autograd-free inference path, where
/// activations do not need to preserve their inputs for a backward pass.
void AddRowBroadcastInPlace(Tensor* x, const Tensor& row);  ///< x[i,:] += row
void ReluInPlace(Tensor* x);
void TanhInPlace(Tensor* x);
void SigmoidInPlace(Tensor* x);
void SoftmaxRowsInPlace(Tensor* x);  ///< stable per-row softmax

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_TENSOR_H_
