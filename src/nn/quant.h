// Copyright 2026 The QPSeeker Authors
//
// Int8 affine quantization of model weights and activations (DESIGN.md §14).
//
// Weights are quantized symmetrically (zero point 0) either per tensor or
// per output channel (per column of a y = x @ W weight), at checkpoint save
// or in memory; the persisted form (QuantizedTensor) keeps the weight's
// natural row-major orientation so the checkpoint format stays layout-
// agnostic, and PackForGemm produces the kernel form: transposed to
// (out x k), k padded to a multiple of 64, rows 32-byte aligned, with
// per-output-channel int32 weight row sums precomputed for the activation
// zero-point correction.
//
// Activations are quantized dynamically to uint8, **per row** of the batch
// (each row's own min/max, always including zero so the zero point is
// exact and in range). Per-row — not per-batch — is deliberate: row r of a
// quantized forward depends only on row r of the input, which preserves
// the batch-composition-independence invariant the batched encoder, the
// cross-query fusion, and the serving determinism tests all rely on
// (a plan's row of a PredictPlansMulti forward == PredictPlan, bitwise, at
// any batch size).

#ifndef QPS_NN_QUANT_H_
#define QPS_NN_QUANT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/aligned.h"
#include "util/status.h"

namespace qps {
namespace nn {

/// How a weight matrix's scales are shared. kPerChannel means one scale
/// per output channel, i.e. per column of a (in x out) Linear weight —
/// used for output layers where per-channel ranges differ most.
enum class QuantScheme : uint32_t {
  kPerTensor = 0,
  kPerChannel = 1,
};

const char* QuantSchemeName(QuantScheme scheme);

/// Persisted quantized weight: int8 values in the tensor's natural
/// (rows x cols) row-major orientation, plus affine parameters. Weight
/// quantization is symmetric, so every zero point is 0 (the field exists
/// so the format can carry asymmetric tensors later; the loader rejects
/// nonzero values today).
struct QuantizedTensor {
  int64_t rows = 0;
  int64_t cols = 0;
  QuantScheme scheme = QuantScheme::kPerTensor;
  std::vector<float> scales;        ///< 1 (per tensor) or cols (per channel)
  std::vector<int32_t> zero_points; ///< same count as scales, all 0
  util::AlignedVector<int8_t> data; ///< rows * cols values

  int64_t num_scales() const {
    return scheme == QuantScheme::kPerTensor ? 1 : cols;
  }
};

/// Symmetric int8 quantization of `w` (values clamped to [-127, 127], so
/// -128 never appears and |dequantized - original| <= scale / 2 per entry).
/// An all-zero tensor (or channel) gets scale 1.
QuantizedTensor QuantizeWeights(const Tensor& w, QuantScheme scheme);

/// Reconstructs the f32 tensor (scale * q per entry).
Tensor Dequantize(const QuantizedTensor& q);

/// Structural validation shared by the checkpoint loader and tests: sane
/// dims, scale count matching the scheme, every scale finite and positive,
/// every zero point 0, data sized rows*cols. `context` prefixes messages.
Status ValidateQuantizedTensor(const QuantizedTensor& q,
                               const std::string& context);

/// Kernel-ready weights for out = x(m x in) @ W(in x out): W transposed to
/// (out x k_padded) so each output channel's weights are contiguous along
/// k, rows zero-padded to a multiple of 64 and 32-byte aligned.
///
/// `vnni_data` is a second copy of the same weights in the blocked layout
/// the AVX512-VNNI kernel consumes: output channels grouped 16 at a time
/// (one zmm of i32 accumulators), k grouped 4 at a time (one vpdpbusd
/// step), i.e. byte [jb*16*k_padded + kg*64 + c*4 + b] holds
/// weight(k = 4*kg + b, channel = 16*jb + c), zero beyond `out`/`in`.
/// 64-byte aligned so every weight block is one aligned zmm load.
struct PackedQuantWeights {
  int64_t in = 0;          ///< logical k
  int64_t out = 0;         ///< output channels
  int64_t k_padded = 0;    ///< in rounded up to a multiple of 64
  int64_t out_padded = 0;  ///< out rounded up to a multiple of 16
  util::AlignedVector<int8_t> data;  ///< out rows x k_padded
  std::vector<int8_t, util::AlignedAllocator<int8_t, 64>>
      vnni_data;                     ///< out_padded x k_padded, blocked
  std::vector<float> scales;         ///< out entries (broadcast if per-tensor)
  std::vector<int32_t> row_sums;     ///< per-channel sum of int8 weights

  bool ready() const { return out > 0; }
};

PackedQuantWeights PackForGemm(const QuantizedTensor& q);

/// Dynamically quantized activations: uint8 affine, one (scale, zero
/// point) pair per row, rows padded with the row's zero point to k_padded
/// (padded weight lanes are 0, so padding contributes nothing).
struct QuantizedActs {
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t k_padded = 0;
  util::AlignedVector<uint8_t> data;  ///< rows x k_padded
  std::vector<float> scales;          ///< per row
  std::vector<int32_t> zero_points;   ///< per row, in [0, 255]
};

/// Per-row dynamic quantization of `x`. The row range always includes 0,
/// so zero is exactly representable and the zero point lands in [0, 255].
/// Records `qps.nn.int8.dequant_ms` above a small work threshold.
void QuantizeActivationsPerRow(const Tensor& x, QuantizedActs* out);

/// Dequantization epilogue of the int8 GEMM: converts the i32 accumulator
/// block `acc` (a.rows x w.out, row-major) to f32,
///   out(i,j) = sa[i] * sw[j] * (acc(i,j) - zp[i] * row_sum[j]) + bias[j],
/// where the zp*row_sum term removes the activation zero-point offset.
/// `bias` may be null. Lives here (not gemm_int8.cc) so the build can
/// host-tune it: it is elementwise float math with identical results at
/// any vector width, unlike the kernels behind the ISA dispatch.
void DequantizeGemmOutput(const QuantizedActs& a, const PackedQuantWeights& w,
                          const int32_t* acc, const float* bias, Tensor* out);

/// One layer weight's attached int8 state: the persisted form (for
/// re-saving exactly what is being served) plus the packed kernel form.
struct QuantSlot {
  QuantizedTensor stored;
  PackedQuantWeights packed;

  bool ready() const { return packed.ready(); }
  void Clear() {
    stored = QuantizedTensor();
    packed = PackedQuantWeights();
  }
};

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_QUANT_H_
