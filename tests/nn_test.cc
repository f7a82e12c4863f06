// Copyright 2026 The QPSeeker Authors
//
// Tests for the autodiff engine and layers, including finite-difference
// gradient checks on every differentiable operation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

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

}  // namespace
}  // namespace nn
}  // namespace qps
