// Copyright 2026 The QPSeeker Authors

#include "nn/autograd.h"

#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace qps {
namespace nn {

void Node::EnsureGrad() {
  if (!grad.SameShape(value)) grad = Tensor::Zeros(value.rows(), value.cols());
}

void Node::ZeroGrad() {
  if (grad.SameShape(value)) grad.Fill(0.0f);
}

Var MakeLeaf(Tensor value, bool requires_grad) {
  return std::make_shared<Node>(std::move(value), requires_grad);
}
Var Constant(Tensor value) { return MakeLeaf(std::move(value), false); }
Var Parameter(Tensor value) { return MakeLeaf(std::move(value), true); }

namespace {

/// Creates an interior node; requires_grad is inherited from parents.
Var MakeOp(Tensor value, std::vector<Var> parents) {
  bool rg = false;
  for (const auto& p : parents) rg = rg || p->requires_grad;
  auto node = std::make_shared<Node>(std::move(value), rg);
  node->parents = std::move(parents);
  return node;
}

/// Elementwise unary node with value `out` = f(a): da += dvalue * f'(a)
/// (expressed via the output value y where convenient).
template <typename BwdFn>
Var UnaryNode(const Var& a, Tensor out, BwdFn grad_from) {
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa, grad_from]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    const float* g = self->grad.data();
    const float* y = self->value.data();
    const float* x = pa->value.data();
    float* pg = pa->grad.data();
    for (int64_t i = 0; i < self->value.size(); ++i) {
      pg[i] += g[i] * grad_from(x[i], y[i]);
    }
  };
  return node;
}

/// Elementwise unary op: value = fwd(a), mapped per element.
template <typename FwdFn, typename BwdFn>
Var UnaryOp(const Var& a, FwdFn fwd, BwdFn grad_from) {
  Tensor out(a->value.rows(), a->value.cols());
  const float* in = a->value.data();
  float* o = out.data();
  for (int64_t i = 0; i < out.size(); ++i) o[i] = fwd(in[i]);
  return UnaryNode(a, std::move(out), grad_from);
}

}  // namespace

void Backward(const Var& root) {
  QPS_CHECK(root->value.rows() == 1 && root->value.cols() == 1)
      << "Backward root must be scalar";
  // Iterative post-order DFS to get a reverse-topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      Node* parent = node->parents[idx].get();
      ++idx;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  root->EnsureGrad();
  root->grad.Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

Var MatMul(const Var& a, const Var& b) {
  QPS_CHECK(a->value.cols() == b->value.rows()) << "MatMul shape mismatch";
  Tensor out(a->value.rows(), b->value.cols());
  MatMulInto(a->value, b->value, &out);
  Var node = MakeOp(std::move(out), {a, b});
  Node* self = node.get();
  Var pa = a, pb = b;
  node->backward_fn = [self, pa, pb]() {
    if (pa->requires_grad) {
      pa->EnsureGrad();
      MatMulTransBInto(self->grad, pb->value, &pa->grad, /*accumulate=*/true);
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      MatMulTransAInto(pa->value, self->grad, &pb->grad, /*accumulate=*/true);
    }
  };
  return node;
}

Var Add(const Var& a, const Var& b) {
  QPS_CHECK(a->value.SameShape(b->value)) << "Add shape mismatch";
  Tensor out = a->value;
  out.AddInPlace(b->value);
  Var node = MakeOp(std::move(out), {a, b});
  Node* self = node.get();
  Var pa = a, pb = b;
  node->backward_fn = [self, pa, pb]() {
    if (pa->requires_grad) {
      pa->EnsureGrad();
      pa->grad.AddInPlace(self->grad);
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      pb->grad.AddInPlace(self->grad);
    }
  };
  return node;
}

Var AddRowBroadcast(const Var& x, const Var& b) {
  QPS_CHECK(b->value.rows() == 1 && b->value.cols() == x->value.cols())
      << "AddRowBroadcast shape mismatch";
  Tensor out = x->value;
  for (int64_t i = 0; i < out.rows(); ++i) {
    float* row = out.data() + i * out.cols();
    const float* bias = b->value.data();
    for (int64_t j = 0; j < out.cols(); ++j) row[j] += bias[j];
  }
  Var node = MakeOp(std::move(out), {x, b});
  Node* self = node.get();
  Var px = x, pb = b;
  node->backward_fn = [self, px, pb]() {
    if (px->requires_grad) {
      px->EnsureGrad();
      px->grad.AddInPlace(self->grad);
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      const int64_t n = self->grad.cols();
      for (int64_t i = 0; i < self->grad.rows(); ++i) {
        const float* grow = self->grad.data() + i * n;
        float* bg = pb->grad.data();
        for (int64_t j = 0; j < n; ++j) bg[j] += grow[j];
      }
    }
  };
  return node;
}

Var Sub(const Var& a, const Var& b) { return Add(a, Scale(b, -1.0f)); }

Var Mul(const Var& a, const Var& b) {
  QPS_CHECK(a->value.SameShape(b->value)) << "Mul shape mismatch";
  Tensor out(a->value.rows(), a->value.cols());
  for (int64_t i = 0; i < out.size(); ++i) out.at(i) = a->value.at(i) * b->value.at(i);
  Var node = MakeOp(std::move(out), {a, b});
  Node* self = node.get();
  Var pa = a, pb = b;
  node->backward_fn = [self, pa, pb]() {
    if (pa->requires_grad) {
      pa->EnsureGrad();
      for (int64_t i = 0; i < self->grad.size(); ++i) {
        pa->grad.at(i) += self->grad.at(i) * pb->value.at(i);
      }
    }
    if (pb->requires_grad) {
      pb->EnsureGrad();
      for (int64_t i = 0; i < self->grad.size(); ++i) {
        pb->grad.at(i) += self->grad.at(i) * pa->value.at(i);
      }
    }
  };
  return node;
}

Var Scale(const Var& a, float s) {
  return UnaryOp(
      a, [s](float x) { return s * x; },
      [s](float, float) { return s; });
}

Var AddScalar(const Var& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Var Neg(const Var& a) { return Scale(a, -1.0f); }

// Forward values come from the span kernels inference uses, so training
// and serving compute the same activation bits.
Var Sigmoid(const Var& a) {
  Tensor out = a->value;
  SigmoidInPlace(&out);
  return UnaryNode(a, std::move(out), [](float, float y) { return y * (1.0f - y); });
}

Var Tanh(const Var& a) {
  Tensor out = a->value;
  TanhInPlace(&out);
  return UnaryNode(a, std::move(out), [](float, float y) { return 1.0f - y * y; });
}

Var Relu(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var LeakyRelu(const Var& a, float slope) {
  return UnaryOp(
      a, [slope](float x) { return x > 0.0f ? x : slope * x; },
      [slope](float x, float) { return x > 0.0f ? 1.0f : slope; });
}

Var Exp(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Var Log(const Var& a) {
  return UnaryOp(
      a, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

Var Square(const Var& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Var SoftmaxRows(const Var& a) {
  Tensor out(a->value.rows(), a->value.cols());
  const int64_t n = a->value.cols();
  for (int64_t i = 0; i < a->value.rows(); ++i) {
    const float* in = a->value.data() + i * n;
    float* o = out.data() + i * n;
    float mx = -INFINITY;
    for (int64_t j = 0; j < n; ++j) mx = std::max(mx, in[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      o[j] = std::exp(in[j] - mx);
      sum += o[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < n; ++j) o[j] *= inv;
  }
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    const int64_t n = self->value.cols();
    for (int64_t i = 0; i < self->value.rows(); ++i) {
      const float* y = self->value.data() + i * n;
      const float* g = self->grad.data() + i * n;
      float* pg = pa->grad.data() + i * n;
      float dot = 0.0f;
      for (int64_t j = 0; j < n; ++j) dot += y[j] * g[j];
      for (int64_t j = 0; j < n; ++j) pg[j] += y[j] * (g[j] - dot);
    }
  };
  return node;
}

Var ConcatCols(const std::vector<Var>& xs) {
  QPS_CHECK(!xs.empty());
  const int64_t rows = xs[0]->value.rows();
  int64_t total = 0;
  for (const auto& x : xs) {
    QPS_CHECK(x->value.rows() == rows) << "ConcatCols row mismatch";
    total += x->value.cols();
  }
  Tensor out(rows, total);
  int64_t off = 0;
  for (const auto& x : xs) {
    const int64_t c = x->value.cols();
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < c; ++j) out(i, off + j) = x->value(i, j);
    }
    off += c;
  }
  Var node = MakeOp(std::move(out), xs);
  Node* self = node.get();
  std::vector<Var> parents = xs;
  node->backward_fn = [self, parents]() {
    int64_t off = 0;
    for (const auto& p : parents) {
      const int64_t c = p->value.cols();
      if (p->requires_grad) {
        p->EnsureGrad();
        for (int64_t i = 0; i < p->value.rows(); ++i) {
          for (int64_t j = 0; j < c; ++j) p->grad(i, j) += self->grad(i, off + j);
        }
      }
      off += c;
    }
  };
  return node;
}

Var ConcatRows(const std::vector<Var>& xs) {
  QPS_CHECK(!xs.empty());
  const int64_t cols = xs[0]->value.cols();
  int64_t total = 0;
  for (const auto& x : xs) {
    QPS_CHECK(x->value.cols() == cols) << "ConcatRows col mismatch";
    total += x->value.rows();
  }
  Tensor out(total, cols);
  int64_t off = 0;
  for (const auto& x : xs) {
    for (int64_t i = 0; i < x->value.rows(); ++i) {
      for (int64_t j = 0; j < cols; ++j) out(off + i, j) = x->value(i, j);
    }
    off += x->value.rows();
  }
  Var node = MakeOp(std::move(out), xs);
  Node* self = node.get();
  std::vector<Var> parents = xs;
  node->backward_fn = [self, parents]() {
    int64_t off = 0;
    for (const auto& p : parents) {
      if (p->requires_grad) {
        p->EnsureGrad();
        for (int64_t i = 0; i < p->value.rows(); ++i) {
          for (int64_t j = 0; j < p->value.cols(); ++j) {
            p->grad(i, j) += self->grad(off + i, j);
          }
        }
      }
      off += p->value.rows();
    }
  };
  return node;
}

Var SliceCols(const Var& a, int64_t from, int64_t to) {
  QPS_CHECK(0 <= from && from < to && to <= a->value.cols()) << "SliceCols range";
  Tensor out(a->value.rows(), to - from);
  for (int64_t i = 0; i < out.rows(); ++i) {
    for (int64_t j = 0; j < out.cols(); ++j) out(i, j) = a->value(i, from + j);
  }
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa, from]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    for (int64_t i = 0; i < self->grad.rows(); ++i) {
      for (int64_t j = 0; j < self->grad.cols(); ++j) {
        pa->grad(i, from + j) += self->grad(i, j);
      }
    }
  };
  return node;
}

Var SliceRows(const Var& a, int64_t from, int64_t to) {
  QPS_CHECK(0 <= from && from < to && to <= a->value.rows()) << "SliceRows range";
  Tensor out(to - from, a->value.cols());
  for (int64_t i = 0; i < out.rows(); ++i) {
    for (int64_t j = 0; j < out.cols(); ++j) out(i, j) = a->value(from + i, j);
  }
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa, from]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    for (int64_t i = 0; i < self->grad.rows(); ++i) {
      for (int64_t j = 0; j < self->grad.cols(); ++j) {
        pa->grad(from + i, j) += self->grad(i, j);
      }
    }
  };
  return node;
}

Var Transpose(const Var& a) {
  Tensor out(a->value.cols(), a->value.rows());
  for (int64_t i = 0; i < a->value.rows(); ++i) {
    for (int64_t j = 0; j < a->value.cols(); ++j) out(j, i) = a->value(i, j);
  }
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    for (int64_t i = 0; i < self->grad.rows(); ++i) {
      for (int64_t j = 0; j < self->grad.cols(); ++j) {
        pa->grad(j, i) += self->grad(i, j);
      }
    }
  };
  return node;
}

Var MaskedMeanRows(const Var& x, const Tensor& mask) {
  QPS_CHECK(mask.rows() == x->value.rows() && mask.cols() == 1)
      << "MaskedMeanRows mask shape";
  float count = 0.0f;
  for (int64_t i = 0; i < mask.rows(); ++i) count += mask(i, 0);
  const float inv = count > 0.0f ? 1.0f / count : 0.0f;
  Tensor out(1, x->value.cols());
  for (int64_t i = 0; i < x->value.rows(); ++i) {
    if (mask(i, 0) == 0.0f) continue;
    for (int64_t j = 0; j < x->value.cols(); ++j) out(0, j) += x->value(i, j) * inv;
  }
  Var node = MakeOp(std::move(out), {x});
  Node* self = node.get();
  Var px = x;
  Tensor mask_copy = mask;
  node->backward_fn = [self, px, mask_copy, inv]() {
    if (!px->requires_grad) return;
    px->EnsureGrad();
    for (int64_t i = 0; i < px->value.rows(); ++i) {
      if (mask_copy(i, 0) == 0.0f) continue;
      for (int64_t j = 0; j < px->value.cols(); ++j) {
        px->grad(i, j) += self->grad(0, j) * inv;
      }
    }
  };
  return node;
}

Var MeanRows(const Var& x) {
  Tensor mask = Tensor::Ones(x->value.rows(), 1);
  return MaskedMeanRows(x, mask);
}

Var SumAll(const Var& a) {
  Tensor out(1, 1);
  out(0, 0) = a->value.Sum();
  Var node = MakeOp(std::move(out), {a});
  Node* self = node.get();
  Var pa = a;
  node->backward_fn = [self, pa]() {
    if (!pa->requires_grad) return;
    pa->EnsureGrad();
    const float g = self->grad(0, 0);
    for (int64_t i = 0; i < pa->grad.size(); ++i) pa->grad.at(i) += g;
  };
  return node;
}

Var MeanAll(const Var& a) {
  const float inv = a->value.size() > 0 ? 1.0f / static_cast<float>(a->value.size()) : 0.0f;
  return Scale(SumAll(a), inv);
}

Var MseLoss(const Var& pred, const Tensor& target) {
  QPS_CHECK(pred->value.SameShape(target)) << "MseLoss shape mismatch";
  return MeanAll(Square(Sub(pred, Constant(target))));
}

Var WeightedMseLoss(const Var& pred, const Tensor& target, const Tensor& weight) {
  QPS_CHECK(pred->value.SameShape(target) && pred->value.SameShape(weight))
      << "WeightedMseLoss shape mismatch";
  return MeanAll(Mul(Square(Sub(pred, Constant(target))), Constant(weight)));
}

Var GaussianKl(const Var& mu, const Var& logvar) {
  QPS_CHECK(mu->value.SameShape(logvar->value)) << "GaussianKl shape mismatch";
  // 0.5 * sum(exp(logvar) + mu^2 - 1 - logvar)
  Var term = Sub(Add(Exp(logvar), Square(mu)), AddScalar(logvar, 1.0f));
  return Scale(SumAll(term), 0.5f);
}

Var Reparameterize(const Var& mu, const Var& logvar, const Tensor& eps) {
  QPS_CHECK(mu->value.SameShape(logvar->value) && mu->value.SameShape(eps))
      << "Reparameterize shape mismatch";
  Var sigma = Exp(Scale(logvar, 0.5f));
  return Add(mu, Mul(sigma, Constant(eps)));
}

}  // namespace nn
}  // namespace qps
