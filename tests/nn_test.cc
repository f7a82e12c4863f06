// Copyright 2026 The QPSeeker Authors
//
// Tests for the autodiff engine and layers, including finite-difference
// gradient checks on every differentiable operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/serialize.h"

namespace qps {
namespace nn {
namespace {

// Checks d(loss)/d(leaf) for `build` (a scalar-valued graph of the leaves)
// against central finite differences.
void CheckGradients(std::vector<Var> leaves,
                    const std::function<Var(const std::vector<Var>&)>& build,
                    float tol = 2e-2f, float eps = 1e-3f) {
  Var loss = build(leaves);
  for (auto& l : leaves) l->ZeroGrad();
  Backward(loss);
  for (size_t li = 0; li < leaves.size(); ++li) {
    Var& leaf = leaves[li];
    leaf->EnsureGrad();
    for (int64_t i = 0; i < leaf->value.size(); ++i) {
      const float orig = leaf->value.at(i);
      leaf->value.at(i) = orig + eps;
      const float up = build(leaves)->value(0, 0);
      leaf->value.at(i) = orig - eps;
      const float down = build(leaves)->value(0, 0);
      leaf->value.at(i) = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float analytic = leaf->grad.at(i);
      const float scale = std::max({1.0f, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic, numeric, tol * scale)
          << "leaf " << li << " element " << i;
    }
  }
}

TEST(AutogradTest, AddAndScaleForward) {
  Var a = Constant(Tensor::Row({1.0f, 2.0f}));
  Var b = Constant(Tensor::Row({3.0f, 4.0f}));
  Var c = Scale(Add(a, b), 2.0f);
  EXPECT_FLOAT_EQ(c->value(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(c->value(0, 1), 12.0f);
}

TEST(AutogradTest, MatMulForward) {
  Tensor a(2, 3);
  for (int64_t i = 0; i < 6; ++i) a.at(i) = static_cast<float>(i + 1);
  Tensor b(3, 2);
  for (int64_t i = 0; i < 6; ++i) b.at(i) = static_cast<float>(i);
  Var c = MatMul(Constant(a), Constant(b));
  // [[1,2,3],[4,5,6]] @ [[0,1],[2,3],[4,5]] = [[16,22],[34,49]]
  EXPECT_FLOAT_EQ(c->value(0, 0), 16.0f);
  EXPECT_FLOAT_EQ(c->value(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c->value(1, 0), 34.0f);
  EXPECT_FLOAT_EQ(c->value(1, 1), 49.0f);
}

TEST(AutogradTest, MatMulGradient) {
  Rng rng(1);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 3, &rng)),
                             Parameter(Tensor::Randn(3, 2, &rng))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    return SumAll(MatMul(l[0], l[1]));
  });
}

TEST(AutogradTest, ElementwiseGradients) {
  Rng rng(2);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 4, &rng)),
                             Parameter(Tensor::Randn(2, 4, &rng))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    Var x = Mul(l[0], l[1]);
    x = Add(x, Scale(l[0], 0.5f));
    x = Sub(x, l[1]);
    return SumAll(Square(x));
  });
}

TEST(AutogradTest, NonlinearityGradients) {
  Rng rng(3);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(1, 6, &rng))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    Var x = Sigmoid(l[0]);
    x = Add(x, Tanh(l[0]));
    x = Add(x, LeakyRelu(l[0]));
    return SumAll(x);
  });
}

TEST(AutogradTest, ExpLogGradients) {
  Rng rng(4);
  Tensor init = Tensor::Randn(1, 5, &rng, 0.3f);
  for (int64_t i = 0; i < init.size(); ++i) init.at(i) = std::fabs(init.at(i)) + 0.5f;
  std::vector<Var> leaves = {Parameter(init)};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    return SumAll(Add(Exp(Scale(l[0], 0.3f)), Log(l[0])));
  });
}

TEST(AutogradTest, SoftmaxRowsSumsToOne) {
  Rng rng(5);
  Var x = Constant(Tensor::Randn(3, 7, &rng));
  Var s = SoftmaxRows(x);
  for (int64_t i = 0; i < 3; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 7; ++j) sum += s->value(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AutogradTest, SoftmaxGradient) {
  Rng rng(6);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 5, &rng))};
  Tensor w = Tensor::Randn(2, 5, &rng);
  CheckGradients(leaves, [w](const std::vector<Var>& l) {
    return SumAll(Mul(SoftmaxRows(l[0]), Constant(w)));
  });
}

TEST(AutogradTest, ConcatSliceGradients) {
  Rng rng(7);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 3, &rng)),
                             Parameter(Tensor::Randn(2, 2, &rng))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    Var cat = ConcatCols({l[0], l[1]});
    Var left = SliceCols(cat, 0, 2);
    Var right = SliceCols(cat, 3, 5);
    return SumAll(Mul(left, right));
  });
}

TEST(AutogradTest, ConcatRowsSliceRowsGradients) {
  Rng rng(8);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 3, &rng)),
                             Parameter(Tensor::Randn(1, 3, &rng))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    Var cat = ConcatRows({l[0], l[1]});
    return SumAll(Square(SliceRows(cat, 1, 3)));
  });
}

TEST(AutogradTest, TransposeGradient) {
  Rng rng(9);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(2, 4, &rng))};
  Tensor w = Tensor::Randn(4, 2, &rng);
  CheckGradients(leaves, [w](const std::vector<Var>& l) {
    return SumAll(Mul(Transpose(l[0]), Constant(w)));
  });
}

TEST(AutogradTest, MaskedMeanRowsGradient) {
  Rng rng(10);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(4, 3, &rng))};
  Tensor mask(4, 1);
  mask(0, 0) = 1.0f;
  mask(2, 0) = 1.0f;
  CheckGradients(leaves, [mask](const std::vector<Var>& l) {
    return SumAll(Square(MaskedMeanRows(l[0], mask)));
  });
}

TEST(AutogradTest, MaskedMeanRowsIgnoresMaskedRows) {
  Tensor x(2, 2);
  x(0, 0) = 1.0f;
  x(0, 1) = 2.0f;
  x(1, 0) = 100.0f;
  x(1, 1) = 200.0f;
  Tensor mask(2, 1);
  mask(0, 0) = 1.0f;
  Var m = MaskedMeanRows(Constant(x), mask);
  EXPECT_FLOAT_EQ(m->value(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m->value(0, 1), 2.0f);
}

TEST(AutogradTest, AllZeroMaskYieldsZeros) {
  Tensor x = Tensor::Ones(3, 2);
  Tensor mask = Tensor::Zeros(3, 1);
  Var m = MaskedMeanRows(Constant(x), mask);
  EXPECT_FLOAT_EQ(m->value(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m->value(0, 1), 0.0f);
}

TEST(AutogradTest, MseLossGradient) {
  Rng rng(11);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(1, 4, &rng))};
  Tensor target = Tensor::Randn(1, 4, &rng);
  CheckGradients(leaves, [target](const std::vector<Var>& l) {
    return MseLoss(l[0], target);
  });
}

TEST(AutogradTest, KlGradientAndValue) {
  Rng rng(12);
  // KL(N(0,1) || N(0,1)) == 0.
  Var mu0 = Parameter(Tensor::Zeros(1, 3));
  Var lv0 = Parameter(Tensor::Zeros(1, 3));
  EXPECT_NEAR(GaussianKl(mu0, lv0)->value(0, 0), 0.0f, 1e-6f);

  std::vector<Var> leaves = {Parameter(Tensor::Randn(1, 3, &rng, 0.5f)),
                             Parameter(Tensor::Randn(1, 3, &rng, 0.5f))};
  CheckGradients(leaves, [](const std::vector<Var>& l) {
    return GaussianKl(l[0], l[1]);
  });
}

TEST(AutogradTest, ReparameterizeGradient) {
  Rng rng(13);
  Tensor eps = Tensor::Randn(1, 3, &rng);
  std::vector<Var> leaves = {Parameter(Tensor::Randn(1, 3, &rng, 0.3f)),
                             Parameter(Tensor::Randn(1, 3, &rng, 0.3f))};
  CheckGradients(leaves, [eps](const std::vector<Var>& l) {
    return SumAll(Square(Reparameterize(l[0], l[1], eps)));
  });
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Var x = Parameter(Tensor::Row({2.0f}));
  Var loss1 = SumAll(Square(x));
  Backward(loss1);
  EXPECT_FLOAT_EQ(x->grad(0, 0), 4.0f);
  Var loss2 = SumAll(Square(x));
  Backward(loss2);
  EXPECT_FLOAT_EQ(x->grad(0, 0), 8.0f);
  x->ZeroGrad();
  EXPECT_FLOAT_EQ(x->grad(0, 0), 0.0f);
}

TEST(AutogradTest, DiamondGraphGradient) {
  // y = a*a + a (a used twice) => dy/da = 2a + 1.
  Var a = Parameter(Tensor::Row({3.0f}));
  Var loss = SumAll(Add(Mul(a, a), a));
  Backward(loss);
  EXPECT_FLOAT_EQ(a->grad(0, 0), 7.0f);
}

TEST(LayersTest, LinearShapesAndGradient) {
  Rng rng(20);
  Linear lin(4, 3, &rng);
  EXPECT_EQ(lin.Parameters().size(), 2u);
  Var x = Constant(Tensor::Randn(2, 4, &rng));
  Var y = lin.Forward(x);
  EXPECT_EQ(y->value.rows(), 2);
  EXPECT_EQ(y->value.cols(), 3);
  lin.ZeroGrad();
  Backward(SumAll(Square(y)));
  for (const auto& p : lin.Parameters()) {
    EXPECT_GT(p.var->grad.FrobeniusNorm(), 0.0f) << p.name;
  }
}

TEST(LayersTest, MlpDepthAndWidth) {
  Rng rng(21);
  Mlp mlp(8, 16, 4, /*hidden_layers=*/5, &rng);
  // 5 hidden + 1 output layer, 2 params each.
  EXPECT_EQ(mlp.Parameters().size(), 12u);
  Var y = mlp.Forward(Constant(Tensor::Randn(1, 8, &rng)));
  EXPECT_EQ(y->value.cols(), 4);
}

TEST(LayersTest, MlpLearnsXor) {
  Rng rng(22);
  Mlp mlp(2, 8, 1, 2, &rng, Activation::kTanh);
  Adam adam(mlp.Parameters(), 0.05f);
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const float ys[4] = {0, 1, 1, 0};
  float loss_val = 1.0f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    loss_val = 0.0f;
    mlp.ZeroGrad();
    for (int i = 0; i < 4; ++i) {
      Var pred = mlp.Forward(Constant(Tensor::Row({xs[i][0], xs[i][1]})));
      Var loss = MseLoss(pred, Tensor::Row({ys[i]}));
      loss_val += loss->value(0, 0);
      Backward(loss);
    }
    adam.Step();
  }
  EXPECT_LT(loss_val / 4.0f, 0.02f);
}

TEST(LayersTest, LstmCellShapesAndGradient) {
  Rng rng(23);
  LstmCell cell(6, 5, &rng);
  auto st = cell.InitialState();
  Var x = Constant(Tensor::Randn(1, 6, &rng));
  auto next = cell.Forward(x, st);
  EXPECT_EQ(next.h->value.cols(), 5);
  EXPECT_EQ(next.c->value.cols(), 5);
  // Two chained steps backprop into the shared weights.
  auto next2 = cell.Forward(x, next);
  cell.ZeroGrad();
  Backward(SumAll(Square(next2.h)));
  for (const auto& p : cell.Parameters()) {
    EXPECT_GT(p.var->grad.FrobeniusNorm(), 0.0f) << p.name;
  }
}

TEST(LayersTest, LstmNumericGradient) {
  Rng rng(24);
  LstmCell cell(3, 2, &rng);
  auto params = cell.Parameters();
  std::vector<Var> leaves;
  for (auto& p : params) leaves.push_back(p.var);
  Tensor xval = Tensor::Randn(1, 3, &rng);
  CheckGradients(leaves, [&cell, xval](const std::vector<Var>&) {
    auto st = cell.InitialState();
    auto s1 = cell.Forward(Constant(xval), st);
    auto s2 = cell.Forward(Constant(xval), s1);
    return SumAll(Square(s2.h));
  });
}

TEST(LayersTest, CrossAttentionShapesAndScores) {
  Rng rng(25);
  MultiHeadCrossAttention attn(10, 8, /*heads=*/4, /*head_dim=*/6, /*out=*/12, &rng);
  Var q = Constant(Tensor::Randn(1, 10, &rng));
  Var ctx = Constant(Tensor::Randn(5, 8, &rng));
  Tensor scores;
  Var out = attn.Forward(q, ctx, &scores);
  EXPECT_EQ(out->value.rows(), 1);
  EXPECT_EQ(out->value.cols(), 12);
  EXPECT_EQ(scores.rows(), 4);
  EXPECT_EQ(scores.cols(), 5);
  for (int64_t h = 0; h < 4; ++h) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_GE(scores(h, j), 0.0f);
      sum += scores(h, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
  }
}

TEST(LayersTest, CrossAttentionGradientFlowsToAllParams) {
  Rng rng(26);
  MultiHeadCrossAttention attn(4, 5, 2, 3, 6, &rng);
  Var q = Constant(Tensor::Randn(1, 4, &rng));
  Var ctx = Constant(Tensor::Randn(3, 5, &rng));
  attn.ZeroGrad();
  Backward(SumAll(Square(attn.Forward(q, ctx))));
  for (const auto& p : attn.Parameters()) {
    EXPECT_GT(p.var->grad.FrobeniusNorm(), 0.0f) << p.name;
  }
}

TEST(LayersTest, VaeShapesAndDeterministicInference) {
  Rng rng(27);
  Vae vae(32, 8, /*hidden_layers=*/3, &rng);
  Var x = Constant(Tensor::Randn(1, 32, &rng));
  auto out1 = vae.Forward(x, nullptr);
  auto out2 = vae.Forward(x, nullptr);
  EXPECT_EQ(out1.mu->value.cols(), 8);
  EXPECT_EQ(out1.recon->value.cols(), 32);
  // Inference (no rng) is deterministic: z == mu.
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(out1.z->value(0, i), out1.mu->value(0, i));
    EXPECT_FLOAT_EQ(out1.recon->value(0, i % 32), out2.recon->value(0, i % 32));
  }
}

TEST(LayersTest, VaeTrainingReducesLoss) {
  Rng rng(28);
  Vae vae(16, 4, 2, &rng);
  Adam adam(vae.Parameters(), 1e-2f);
  // Data on a 2-d manifold: x = a*u + b*v, so a 4-d latent suffices.
  Tensor u = Tensor::Randn(1, 16, &rng), v = Tensor::Randn(1, 16, &rng);
  std::vector<Tensor> data;
  for (int i = 0; i < 16; ++i) {
    const float a = static_cast<float>(rng.Normal()), b = static_cast<float>(rng.Normal());
    Tensor d(1, 16);
    for (int64_t j = 0; j < 16; ++j) d(0, j) = a * u(0, j) + b * v(0, j);
    data.push_back(std::move(d));
  }
  float first = 0.0f, last = 0.0f;
  for (int epoch = 0; epoch < 120; ++epoch) {
    float total = 0.0f;
    vae.ZeroGrad();
    for (const auto& d : data) {
      auto out = vae.Forward(Constant(d), &rng);
      Var loss = Add(MseLoss(out.recon, d), Scale(GaussianKl(out.mu, out.logvar), 1e-3f));
      total += loss->value(0, 0);
      Backward(loss);
    }
    adam.Step();
    if (epoch == 0) first = total;
    last = total;
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(OptimTest, SgdDescendsQuadratic) {
  Var x = Parameter(Tensor::Row({5.0f}));
  Sgd sgd({{"x", x}}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    x->ZeroGrad();
    Backward(SumAll(Square(x)));
    sgd.Step();
  }
  EXPECT_NEAR(x->value(0, 0), 0.0f, 1e-4f);
}

TEST(OptimTest, AdamDescendsRosenbrockish) {
  Rng rng(30);
  Var x = Parameter(Tensor::Row({-1.0f, 2.0f}));
  Adam adam({{"x", x}}, 0.05f);
  float last = 0.0f;
  for (int i = 0; i < 300; ++i) {
    x->ZeroGrad();
    Var a = SliceCols(x, 0, 1);
    Var b = SliceCols(x, 1, 2);
    Var loss = Add(SumAll(Square(AddScalar(a, -1.0f))),
                   Scale(SumAll(Square(Sub(b, Square(a)))), 10.0f));
    last = loss->value(0, 0);
    Backward(loss);
    adam.Step();
  }
  EXPECT_LT(last, 0.05f);
}

TEST(OptimTest, GradClipBoundsNorm) {
  Var x = Parameter(Tensor::Row({100.0f, 100.0f}));
  Adam adam({{"x", x}}, 0.1f);
  x->ZeroGrad();
  Backward(SumAll(Square(x)));
  const float pre = adam.ClipGradNorm(1.0f);
  EXPECT_GT(pre, 100.0f);
  EXPECT_NEAR(x->grad.FrobeniusNorm(), 1.0f, 1e-4f);
}

TEST(SerializeTest, RoundTripRestoresWeights) {
  Rng rng(31);
  Mlp a(4, 8, 2, 2, &rng);
  Mlp b(4, 8, 2, 2, &rng);  // different init
  const std::string path = "/tmp/qps_nn_serialize_test.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  ASSERT_TRUE(LoadModule(&b, path).ok());
  Tensor in = Tensor::Randn(1, 4, &rng);
  Var ya = a.Forward(Constant(in));
  Var yb = b.Forward(Constant(in));
  for (int64_t i = 0; i < 2; ++i) EXPECT_FLOAT_EQ(ya->value(0, i), yb->value(0, i));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchFails) {
  Rng rng(32);
  Mlp a(4, 8, 2, 2, &rng);
  Mlp c(4, 16, 2, 2, &rng);
  const std::string path = "/tmp/qps_nn_serialize_test2.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  EXPECT_FALSE(LoadModule(&c, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  Rng rng(33);
  Mlp a(2, 4, 1, 1, &rng);
  EXPECT_FALSE(LoadModule(&a, "/tmp/definitely_missing_qps_model.bin").ok());
}

// ---- activation kernels ----------------------------------------------------

using SpanKernel = void (*)(float*, int64_t);

// The kernel's value for `x` computed alone, as a span of one.
float Alone(SpanKernel kernel, float x) {
  kernel(&x, 1);
  return x;
}

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }

TEST(ActivationKernelTest, NanInGivesNanOut) {
  const float nans[] = {std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(),
                        std::bit_cast<float>(0x7f800001u)};
  for (SpanKernel kernel : {static_cast<SpanKernel>(SigmoidInPlace),
                            static_cast<SpanKernel>(TanhInPlace)}) {
    for (float nan : nans) {
      EXPECT_TRUE(std::isnan(Alone(kernel, nan)));
      // Also inside a span long enough to take the vector body.
      std::vector<float> span(37, 0.5f);
      span[3] = nan;
      span[33] = nan;
      kernel(span.data(), static_cast<int64_t>(span.size()));
      EXPECT_TRUE(std::isnan(span[3]));
      EXPECT_TRUE(std::isnan(span[33]));
      EXPECT_FALSE(std::isnan(span[4]));
    }
  }
}

TEST(ActivationKernelTest, ExtremeInputsStayInRange) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float magnitudes[] = {88.0f, 88.3f, 88.4f, 88.8f, 89.0f, 100.0f, 1e10f,
                              std::numeric_limits<float>::max(), inf, denorm,
                              1e-40f, 1e-38f, 0.0f};
  std::vector<float> in;
  for (float m : magnitudes) {
    in.push_back(m);
    in.push_back(-m);
  }
  std::vector<float> sig = in, th = in;
  SigmoidInPlace(sig.data(), static_cast<int64_t>(sig.size()));
  TanhInPlace(th.data(), static_cast<int64_t>(th.size()));
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(std::isfinite(sig[i]) && sig[i] >= 0.0f && sig[i] <= 1.0f)
        << "sigmoid(" << in[i] << ") = " << sig[i];
    EXPECT_TRUE(std::isfinite(th[i]) && th[i] >= -1.0f && th[i] <= 1.0f)
        << "tanh(" << in[i] << ") = " << th[i];
    EXPECT_EQ(Bits(sig[i]), Bits(Alone(SigmoidInPlace, in[i]))) << in[i];
    EXPECT_EQ(Bits(th[i]), Bits(Alone(TanhInPlace, in[i]))) << in[i];
  }
  EXPECT_EQ(Alone(SigmoidInPlace, inf), 1.0f);
  EXPECT_EQ(Alone(SigmoidInPlace, 0.0f), 0.5f);
  EXPECT_GT(Alone(TanhInPlace, inf), 0.99999f);
  EXPECT_LT(Alone(TanhInPlace, -inf), -0.99999f);
  EXPECT_EQ(Alone(TanhInPlace, denorm), denorm);  // tanh(x) = x to float precision
}

TEST(ActivationKernelTest, RelativeErrorAgainstDoubleWithin4e7) {
  constexpr int64_t kPoints = 400001;  // [-20, 20] in steps of 1e-4
  std::vector<float> x(kPoints);
  for (int64_t i = 0; i < kPoints; ++i) {
    x[static_cast<size_t>(i)] = static_cast<float>(-20.0 + 1e-4 * static_cast<double>(i));
  }
  std::vector<float> sig = x, th = x;
  SigmoidInPlace(sig.data(), kPoints);
  TanhInPlace(th.data(), kPoints);
  double worst_sig = 0.0, worst_tanh = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double xd = x[i];
    const double rs = 1.0 / (1.0 + std::exp(-xd));
    const double rt = std::tanh(xd);
    worst_sig = std::max(worst_sig, std::fabs(sig[i] - rs) / rs);
    if (rt != 0.0) worst_tanh = std::max(worst_tanh, std::fabs(th[i] - rt) / std::fabs(rt));
  }
  EXPECT_LE(worst_sig, 4e-7);
  EXPECT_LE(worst_tanh, 4e-7);
}

TEST(ActivationKernelTest, ElementBitsIndependentOfSpanOffsetAndLength) {
  Rng rng(41);
  for (SpanKernel kernel : {static_cast<SpanKernel>(SigmoidInPlace),
                            static_cast<SpanKernel>(TanhInPlace)}) {
    for (int64_t len = 1; len <= 70; ++len) {
      for (int64_t off = 0; off < 16; ++off) {
        std::vector<float> buf(static_cast<size_t>(off + len));
        for (float& v : buf) v = static_cast<float>(rng.Uniform(-12.0, 12.0));
        const std::vector<float> in = buf;
        kernel(buf.data() + off, len);
        for (int64_t i = 0; i < off + len; ++i) {
          const size_t k = static_cast<size_t>(i);
          const float want = i < off ? in[k] : Alone(kernel, in[k]);
          ASSERT_EQ(Bits(buf[k]), Bits(want))
              << "len " << len << " offset " << off << " element " << i << " x " << in[k];
        }
      }
    }
  }
}

TEST(ActivationKernelTest, AutogradForwardBitEqualsKernels) {
  Rng rng(42);
  const Tensor x = Tensor::Randn(7, 19, &rng, 4.0f);
  Tensor sig = x, th = x;
  SigmoidInPlace(&sig);
  TanhInPlace(&th);
  const Tensor sig_ag = Sigmoid(Constant(x))->value;
  const Tensor th_ag = Tanh(Constant(x))->value;
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(Bits(sig_ag.at(i)), Bits(sig.at(i))) << i;
    EXPECT_EQ(Bits(th_ag.at(i)), Bits(th.at(i))) << i;
  }
}

// Row `r` of `t` as a 1 x cols tensor.
Tensor RowOf(const Tensor& t, int64_t r) {
  Tensor out(1, t.cols());
  for (int64_t j = 0; j < t.cols(); ++j) out(0, j) = t(r, j);
  return out;
}

void ExpectBitEqual(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.SameShape(b)) << what;
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a.at(i)), Bits(b.at(i))) << what << " element " << i;
  }
}

TEST(LstmCellTest, BatchRowsMatchSingleRowBitwise) {
  Rng rng(43);
  LstmCell cell(139, 64, &rng);
  for (bool quantized : {false, true}) {
    if (quantized) {
      ASSERT_GT(QuantizeModule(&cell), 0);
    }
    for (int64_t batch = 1; batch <= 13; ++batch) {
      const Tensor x = Tensor::Randn(batch, 139, &rng);
      Tensor h = Tensor::Randn(batch, 64, &rng, 0.5f);
      Tensor c = Tensor::Randn(batch, 64, &rng);
      const Tensor h0 = h, c0 = c;
      cell.ForwardTensor(x, &h, &c);
      for (int64_t r = 0; r < batch; ++r) {
        Tensor hr = RowOf(h0, r), cr = RowOf(c0, r);
        cell.ForwardTensor(RowOf(x, r), &hr, &cr);
        const std::string what = (quantized ? "int8" : "f32") + std::string(" batch ") +
                                 std::to_string(batch) + " row " + std::to_string(r);
        ExpectBitEqual(RowOf(h, r), hr, what + " h");
        ExpectBitEqual(RowOf(c, r), cr, what + " c");
      }
    }
  }
}

// Inference attention as composed before AttendRows: gather the plan's key
// and value rows into tensors, then per head the one-row Gemms q_h @ K_h^T
// and softmax(.) @ V_h, then the output projection for this plan alone.
Tensor ReferenceAttend(const MultiHeadCrossAttention& attn, const Tensor& q_heads,
                       const Tensor& keys, const Tensor& values,
                       const std::vector<int>& rows, Tensor* scores) {
  const int64_t d = attn.head_dim();
  const int64_t width = attn.heads() * d;
  const int64_t n = static_cast<int64_t>(rows.size());
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  *scores = Tensor(attn.heads(), n);
  Tensor concat(1, width);
  Tensor q(1, d), k(n, d), v(n, d), weights(1, n), head_out(1, d);
  for (int h = 0; h < attn.heads(); ++h) {
    for (int64_t j = 0; j < d; ++j) q(0, j) = q_heads(h, j);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        k(i, j) = keys(rows[static_cast<size_t>(i)], h * d + j);
        v(i, j) = values(rows[static_cast<size_t>(i)], h * d + j);
      }
    }
    Gemm(GemmLayout::kTransB, q, k, &weights, false);
    weights.ScaleInPlace(scale);
    SoftmaxRowsInPlace(&weights);
    for (int64_t j = 0; j < n; ++j) (*scores)(h, j) = weights(0, j);
    Gemm(GemmLayout::kNone, weights, v, &head_out, false);
    for (int64_t j = 0; j < d; ++j) concat(0, h * d + j) = head_out(0, j);
  }
  Tensor w, b;
  for (const auto& p : attn.Parameters()) {
    if (p.name.ends_with(".proj.w")) w = p.var->value;
    if (p.name.ends_with(".proj.b")) b = p.var->value;
  }
  Tensor out(1, w.cols());
  Gemm(GemmLayout::kNone, concat, w, &out, false);
  AddRowBroadcastInPlace(&out, b);
  return out;
}

// `plans` plans over a pool of `pool` context rows, their sizes spread
// evenly from 2 to 2 + max_extra rows, drawn from the pool (repeats
// allowed).
std::vector<std::vector<int>> RandomPlans(int plans, int pool, int max_extra, Rng* rng) {
  std::vector<std::vector<int>> out;
  for (int p = 0; p < plans; ++p) {
    std::vector<int> rows(static_cast<size_t>(2 + p * max_extra / std::max(plans - 1, 1)));
    for (int& r : rows) r = static_cast<int>(rng->UniformInt(0, pool - 1));
    out.push_back(std::move(rows));
  }
  return out;
}

TEST(CrossAttentionTest, AttendRowsMatchesPerHeadGemmReference) {
  struct Shape {
    int64_t query_dim, context_dim;
    int heads;
    int64_t head_dim;
    int pool, max_extra;
  };
  // Smoke, ci and paper widths; the largest paper plans (up to 291 rows)
  // span two 256-row blocks of the value sum.
  const Shape shapes[] = {{16, 24, 2, 8, 40, 9},
                          {64, 64, 4, 16, 60, 17},
                          {512, 950, 4, 256, 300, 289}};
  Rng rng(44);
  for (const Shape& s : shapes) {
    MultiHeadCrossAttention attn(s.query_dim, s.context_dim, s.heads, s.head_dim,
                                 s.query_dim + s.context_dim, &rng);
    Tensor q_heads, keys, values;
    attn.ProjectQuery(Tensor::Randn(1, s.query_dim, &rng), &q_heads);
    attn.ProjectContext(Tensor::Randn(s.pool, s.context_dim, &rng), &keys, &values);
    const auto plans = RandomPlans(9, s.pool, s.max_extra, &rng);
    Tensor out;
    attn.AttendRows(q_heads, keys.data(), values.data(), plans, &out);
    ASSERT_EQ(out.rows(), 9);
    for (size_t p = 0; p < plans.size(); ++p) {
      const std::string what = "head_dim " + std::to_string(s.head_dim) + " plan " +
                               std::to_string(p) + " of " +
                               std::to_string(plans[p].size()) + " rows";
      Tensor want_scores, scores, one;
      const Tensor want = ReferenceAttend(attn, q_heads, keys, values, plans[p], &want_scores);
      ExpectBitEqual(RowOf(out, static_cast<int64_t>(p)), want, what);
      attn.AttendRows(q_heads, keys.data(), values.data(), {plans[p]}, &one, &scores);
      ExpectBitEqual(one, want, what + " alone");
      ExpectBitEqual(scores, want_scores, what + " scores");
    }
  }
}

TEST(CrossAttentionTest, AttendRowsInt8RowsMatchSinglePlanBitwise) {
  Rng rng(45);
  MultiHeadCrossAttention attn(64, 64, 4, 16, 128, &rng);
  ASSERT_GT(QuantizeModule(&attn), 0);
  Tensor q_heads, keys, values;
  attn.ProjectQuery(Tensor::Randn(1, 64, &rng), &q_heads);
  attn.ProjectContext(Tensor::Randn(50, 64, &rng), &keys, &values);
  for (int count = 1; count <= 9; ++count) {
    const auto plans = RandomPlans(count, 50, 13, &rng);
    Tensor out;
    attn.AttendRows(q_heads, keys.data(), values.data(), plans, &out);
    for (size_t p = 0; p < plans.size(); ++p) {
      Tensor one;
      attn.AttendRows(q_heads, keys.data(), values.data(), {plans[p]}, &one);
      ExpectBitEqual(RowOf(out, static_cast<int64_t>(p)), one,
                     std::to_string(count) + " plans, plan " + std::to_string(p));
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace qps
