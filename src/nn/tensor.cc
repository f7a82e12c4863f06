// Copyright 2026 The QPSeeker Authors

#include "nn/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>
#include <vector>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace qps {
namespace nn {

Tensor Tensor::Row(const std::vector<float>& values) {
  Tensor t(1, static_cast<int64_t>(values.size()));
  t.data_.assign(values.begin(), values.end());
  return t;
}

Tensor Tensor::Randn(int64_t rows, int64_t cols, Rng* rng, float stddev) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng->Normal()) * stddev;
  return t;
}

Tensor Tensor::RandUniform(int64_t rows, int64_t cols, Rng* rng, float limit) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) v = static_cast<float>(rng->Uniform(-limit, limit));
  return t;
}

void Tensor::Fill(float v) {
  for (auto& x : data_) x = v;
}

void Tensor::AddInPlace(const Tensor& other) {
  QPS_DCHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < size(); ++i) dst[i] += src[i];
}

void Tensor::AddScaledInPlace(const Tensor& other, float a) {
  QPS_DCHECK(SameShape(other));
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < size(); ++i) dst[i] += a * src[i];
}

void Tensor::ScaleInPlace(float a) {
  for (auto& x : data_) x *= a;
}

bool Tensor::AllFinite() const {
  for (float x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

float Tensor::FrobeniusNorm() const {
  double acc = 0.0;
  for (float x : data_) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::Sum() const {
  double acc = 0.0;
  for (float x : data_) acc += x;
  return static_cast<float>(acc);
}

float Tensor::Max() const {
  float m = -INFINITY;
  for (float x : data_) m = std::max(m, x);
  return m;
}

std::string Tensor::DebugString(int64_t max_entries) const {
  std::ostringstream os;
  os << "Tensor(" << rows_ << "x" << cols_ << ") [";
  for (int64_t i = 0; i < std::min<int64_t>(size(), max_entries); ++i) {
    if (i > 0) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (size() > max_entries) os << ", ...";
  os << "]";
  return os.str();
}

#if defined(__GNUC__) || defined(__clang__)
#define QPS_RESTRICT __restrict__
#else
#define QPS_RESTRICT
#endif

namespace {

// Register-tile sizes for the GEMM micro-kernel: each full tile keeps a
// kMr x kNr accumulator block in registers and streams a kc-deep panel of
// A and B through it, so every loaded element of B is reused kMr times and
// every element of A kNr times. kKc bounds the packed k-panel so A/B panels
// stay L1/L2-resident.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;
constexpr int64_t kKc = 256;

// Below this many multiply-adds the Timer + histogram overhead would be
// comparable to the GEMM itself, so tiny calls skip the metric.
constexpr int64_t kGemmMetricMinWork = 4096;

struct GemmMetrics {
  metrics::Histogram* gemm_ms;

  static const GemmMetrics& Get() {
    static const GemmMetrics m = [] {
      return GemmMetrics{metrics::Registry::Global().GetHistogram("qps.nn.gemm_ms")};
    }();
    return m;
  }
};

// Full kMr x kNr tile: C += A_panel @ B_panel, with A rows at stride lda
// (element stride 1 along p) and B rows at stride ldb. The accumulators
// live in registers for the whole k loop; stores happen once per tile.
inline void MicroKernelFull(int64_t kc, const float* QPS_RESTRICT a, int64_t lda,
                            const float* QPS_RESTRICT b, int64_t ldb,
                            float* QPS_RESTRICT c, int64_t ldc) {
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    const float a0 = a[0 * lda + p];
    const float a1 = a[1 * lda + p];
    const float a2 = a[2 * lda + p];
    const float a3 = a[3 * lda + p];
    for (int64_t j = 0; j < kNr; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int64_t i = 0; i < kMr; ++i) {
    for (int64_t j = 0; j < kNr; ++j) c[i * ldc + j] += acc[i][j];
  }
}

// Ragged edge tile (mr <= kMr, nr <= kNr). Same register-accumulator shape
// as the full kernel, just with runtime bounds; also serves the m == 1
// GEMV case of single-plan inference.
inline void MicroKernelRagged(int64_t mr, int64_t nr, int64_t kc,
                              const float* QPS_RESTRICT a, int64_t lda,
                              const float* QPS_RESTRICT b, int64_t ldb,
                              float* QPS_RESTRICT c, int64_t ldc) {
  float acc[kMr][kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (int64_t i = 0; i < mr; ++i) {
      const float av = a[i * lda + p];
      for (int64_t j = 0; j < nr; ++j) acc[i][j] += av * brow[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
  }
}

// Dedicated m == 1 GEMV for row-major operands: c(1 x n) += a(1 x k) @
// b(k x n). The tile kernels carry only kNr accumulator lanes per row,
// which for a single row is too few independent FMA chains to hide
// latency; here each 64-wide column strip keeps 64 lanes live across a
// k-block. The accumulation order matches the tile kernels exactly: fresh
// accumulators per kKc-deep block, each block's sums added into c in block
// order. So a row computed alone is bit-identical to the same row inside
// a batch, for every k.
constexpr int64_t kNv = 64;

inline void GemvStrip(int64_t kc, int64_t n, int64_t nv, const float* QPS_RESTRICT a,
                      const float* QPS_RESTRICT b, float* QPS_RESTRICT c) {
  float acc[kNv] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float av = a[p];
    const float* QPS_RESTRICT brow = b + p * n;
    for (int64_t j = 0; j < nv; ++j) acc[j] += av * brow[j];
  }
  for (int64_t j = 0; j < nv; ++j) c[j] += acc[j];
}

inline void GemvRowMajor(int64_t k, int64_t n, const float* QPS_RESTRICT a,
                         const float* QPS_RESTRICT b, float* QPS_RESTRICT c) {
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kc = std::min(kKc, k - p0);
    const float* bp = b + p0 * n;
    int64_t j0 = 0;
    for (; j0 + kNv <= n; j0 += kNv) GemvStrip(kc, n, kNv, a + p0, bp + j0, c + j0);
    if (j0 < n) GemvStrip(kc, n, n - j0, a + p0, bp + j0, c + j0);
  }
}

}  // namespace

void Gemm(GemmLayout layout, const Tensor& a, const Tensor& b, Tensor* out,
          bool accumulate) {
  // Logical shapes: out (m x n) (+)= op(a) (m x k) @ op(b) (k x n).
  const int64_t m = layout == GemmLayout::kTransA ? a.cols() : a.rows();
  const int64_t ka = layout == GemmLayout::kTransA ? a.rows() : a.cols();
  const int64_t kb = layout == GemmLayout::kTransB ? b.cols() : b.rows();
  const int64_t n = layout == GemmLayout::kTransB ? b.rows() : b.cols();
  QPS_CHECK(ka == kb) << "Gemm inner-dimension mismatch: op(a) is " << m << "x" << ka
                      << " but op(b) is " << kb << "x" << n << " (k must agree; m=" << m
                      << " k=" << ka << "/" << kb << " n=" << n << ")";
  QPS_CHECK(out->rows() == m && out->cols() == n)
      << "Gemm output shape mismatch: expected " << m << "x" << n << " for m=" << m
      << " k=" << ka << " n=" << n << " but out is " << out->rows() << "x" << out->cols();
  // Tensor storage is 32-byte aligned (util::AlignedVector); SIMD kernels
  // rely on it, so catch any unaligned operand at the one shared entry point.
  QPS_DCHECK(util::IsAligned(a.data()) && util::IsAligned(b.data()) &&
             util::IsAligned(out->data()))
      << "Gemm operand base pointer not 32-byte aligned";
  const int64_t k = ka;

  // The clock is read only for calls that record the metric.
  const bool record_metric = m * k * n >= kGemmMetricMinWork;
  std::optional<Timer> timer;
  if (record_metric) timer.emplace();

  if (!accumulate) out->Fill(0.0f);
  if (m == 0 || n == 0 || k == 0) return;

  // Single-row row-major product: skip blocking/packing and use the wide
  // GEMV kernel (single-plan inference is exactly this shape).
  if (m == 1 && layout == GemmLayout::kNone) {
    GemvRowMajor(k, n, a.data(), b.data(), out->data());
    if (record_metric) GemmMetrics::Get().gemm_ms->Record(timer->ElapsedMillis());
    return;
  }

  // Packing scratch. thread_local so concurrent GEMMs (serving workers
  // sharing one model) never share buffers, and repeated calls reuse the
  // capacity.
  thread_local std::vector<float> a_pack;
  thread_local std::vector<float> b_pack;

  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kc = std::min(kKc, k - p0);

    // Resolve the A panel: rows of op(a) restricted to k in [p0, p0 + kc),
    // with element stride 1 along p. Row-major a already has that; a
    // transposed a (k x m) is packed into contiguous m x kc rows.
    const float* ap;
    int64_t lda;
    if (layout == GemmLayout::kTransA) {
      a_pack.resize(static_cast<size_t>(m * kc));
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = a.data() + (p0 + p) * m;
        for (int64_t i = 0; i < m; ++i) a_pack[static_cast<size_t>(i * kc + p)] = src[i];
      }
      ap = a_pack.data();
      lda = kc;
    } else {
      ap = a.data() + p0;
      lda = k;
    }

    // Resolve the B panel as kc x n row-major. A transposed b (n x k) is
    // packed once per k-block and then read sequentially by every tile.
    const float* bp;
    int64_t ldb;
    if (layout == GemmLayout::kTransB) {
      b_pack.resize(static_cast<size_t>(kc * n));
      for (int64_t j = 0; j < n; ++j) {
        const float* src = b.data() + j * k + p0;
        for (int64_t p = 0; p < kc; ++p) b_pack[static_cast<size_t>(p * n + j)] = src[p];
      }
      bp = b_pack.data();
      ldb = n;
    } else {
      bp = b.data() + p0 * n;
      ldb = n;
    }

    for (int64_t i0 = 0; i0 < m; i0 += kMr) {
      const int64_t mr = std::min(kMr, m - i0);
      for (int64_t j0 = 0; j0 < n; j0 += kNr) {
        const int64_t nr = std::min(kNr, n - j0);
        float* c = out->data() + i0 * out->cols() + j0;
        if (mr == kMr && nr == kNr) {
          MicroKernelFull(kc, ap + i0 * lda, lda, bp + j0, ldb, c, n);
        } else {
          MicroKernelRagged(mr, nr, kc, ap + i0 * lda, lda, bp + j0, ldb, c, n);
        }
      }
    }
  }

  if (record_metric) GemmMetrics::Get().gemm_ms->Record(timer->ElapsedMillis());
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  Gemm(GemmLayout::kNone, a, b, out, /*accumulate=*/false);
}

void MatMulTransBInto(const Tensor& a, const Tensor& b, Tensor* out, bool accumulate) {
  // out (m x n) (+)= a (m x k) @ b^T (k x n) where b is (n x k).
  Gemm(GemmLayout::kTransB, a, b, out, accumulate);
}

void MatMulTransAInto(const Tensor& a, const Tensor& b, Tensor* out, bool accumulate) {
  // out (k x n) (+)= a^T (k x m) @ b (m x n) where a is (m x k).
  Gemm(GemmLayout::kTransA, a, b, out, accumulate);
}

void GatherDots(const float* QPS_RESTRICT q, int64_t d, const float* QPS_RESTRICT base,
                int64_t stride, const int* QPS_RESTRICT rows, int64_t n,
                float* QPS_RESTRICT out) {
  // MicroKernelRagged's accumulation for one row of A: kNr columns (here
  // gathered rows) keep their own accumulator across a kKc-deep block, and
  // each block's sums are added into the zeroed output in block order.
  std::fill(out, out + n, 0.0f);
  for (int64_t p0 = 0; p0 < d; p0 += kKc) {
    const int64_t kc = std::min(kKc, d - p0);
    for (int64_t j0 = 0; j0 < n; j0 += kNr) {
      const int64_t nr = std::min(kNr, n - j0);
      const float* col[kNr];
      for (int64_t j = 0; j < nr; ++j) col[j] = base + rows[j0 + j] * stride + p0;
      float acc[kNr] = {};
      for (int64_t p = 0; p < kc; ++p) {
        const float qv = q[p0 + p];
        for (int64_t j = 0; j < nr; ++j) acc[j] += qv * col[j][p];
      }
      for (int64_t j = 0; j < nr; ++j) out[j0 + j] += acc[j];
    }
  }
}

void GatherWeightedSum(const float* QPS_RESTRICT w, const float* QPS_RESTRICT base,
                       int64_t stride, const int* QPS_RESTRICT rows, int64_t n, int64_t d,
                       float* QPS_RESTRICT out) {
  // GemvRowMajor's accumulation with B's rows read in place: fresh
  // accumulators per kKc-deep block of rows, added into the zeroed output
  // in block order.
  std::fill(out, out + d, 0.0f);
  for (int64_t p0 = 0; p0 < n; p0 += kKc) {
    const int64_t kc = std::min(kKc, n - p0);
    for (int64_t j0 = 0; j0 < d; j0 += kNv) {
      const int64_t nv = std::min(kNv, d - j0);
      float acc[kNv] = {};
      for (int64_t p = 0; p < kc; ++p) {
        const float wv = w[p0 + p];
        const float* QPS_RESTRICT brow = base + rows[p0 + p] * stride + j0;
        for (int64_t j = 0; j < nv; ++j) acc[j] += wv * brow[j];
      }
      for (int64_t j = 0; j < nv; ++j) out[j0 + j] += acc[j];
    }
  }
}

namespace {

// exp(x) for the activation kernels, after Cephes' expf: x = n ln2 + r
// with |r| <= ln2 / 2, exp(r) from a degree-5 polynomial, 2^n from the
// exponent bits. Written without branches so every span loop that
// inlines it vectorizes (with -fno-trapping-math, which lets GCC evaluate
// both sides of a select).
//
// The clamp to [-kExpBound, kExpBound] keeps n in [-127, 127]: 2^n is then
// a normal float or, at n = -127, zero, never an overflowed exponent
// field. It clamps |x| with one select and puts the sign back with bit
// operations: a second select on the clamped value would let GCC's jump
// threading split the loop body into paths, and a loop with paths does
// not vectorize. NaN clamps to the bound, which keeps the float-to-int
// conversion defined; the final select returns the NaN.
constexpr float kExpBound = 88.3762626647949f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

inline float ExpKernel(float x) {
  const uint32_t sign = std::bit_cast<uint32_t>(x) & 0x80000000u;
  const float ax = std::fabs(x);
  const float axc = ax < kExpBound ? ax : kExpBound;
  const float xc = std::bit_cast<float>(std::bit_cast<uint32_t>(axc) | sign);
  // n = floor(xc * log2(e) + 1/2): truncate toward zero, then step down
  // where truncation rounded a negative value up.
  const float fx = xc * kLog2e + 0.5f;
  float fn = static_cast<float>(static_cast<int32_t>(fx));
  fn = fn > fx ? fn - 1.0f : fn;
  const float r = (xc - fn * kLn2Hi) - fn * kLn2Lo;
  const float r2 = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float er = p * r2 + r + 1.0f;
  const float two_n = std::bit_cast<float>((static_cast<int32_t>(fn) + 127) << 23);
  const float y = er * two_n;
  return x != x ? x : y;
}

// tanh after Cephes' tanhf: an odd polynomial below |x| = 0.625, else
// 1 - 2 / (exp(2|x|) + 1) with the sign put back by a select. |x| is
// capped at 9, where tanh is within one ulp of 1, so exp never saturates.
inline float TanhKernel(float x) {
  const float ax = std::fabs(x);
  const float z = x * x;
  float p = -5.70498872745e-3f;
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const float small = p * z * x + x;
  // `ax > 9 ? 9 : ax` keeps a NaN, which ExpKernel then passes through.
  const float e = ExpKernel(2.0f * (ax > 9.0f ? 9.0f : ax));
  const float big = 1.0f - 2.0f / (e + 1.0f);
  const float large = x < 0.0f ? -big : big;
  return ax < 0.625f ? small : large;
}

}  // namespace

void SigmoidInPlace(float* QPS_RESTRICT x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = 1.0f / (1.0f + ExpKernel(-x[i]));
}

void TanhInPlace(float* QPS_RESTRICT x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] = TanhKernel(x[i]);
}

void AddRowBroadcastInPlace(Tensor* x, const Tensor& row) {
  QPS_CHECK(row.rows() == 1 && row.cols() == x->cols())
      << "AddRowBroadcastInPlace: row is " << row.rows() << "x" << row.cols()
      << " but x is " << x->rows() << "x" << x->cols();
  const float* r = row.data();
  const int64_t n = x->cols();
  for (int64_t i = 0; i < x->rows(); ++i) {
    float* dst = x->data() + i * n;
    for (int64_t j = 0; j < n; ++j) dst[j] += r[j];
  }
}

void ReluInPlace(Tensor* x) {
  float* d = x->data();
  for (int64_t i = 0; i < x->size(); ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
}

void TanhInPlace(Tensor* x) { TanhInPlace(x->data(), x->size()); }

void SigmoidInPlace(Tensor* x) { SigmoidInPlace(x->data(), x->size()); }

void SoftmaxRowsInPlace(Tensor* x) {
  const int64_t n = x->cols();
  for (int64_t i = 0; i < x->rows(); ++i) {
    float* row = x->data() + i * n;
    float mx = -INFINITY;
    for (int64_t j = 0; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
    for (int64_t j = 0; j < n; ++j) row[j] *= inv;
  }
}

}  // namespace nn
}  // namespace qps
