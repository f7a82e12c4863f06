// Copyright 2026 The QPSeeker Authors

#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "nn/gemm_int8.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace qps {
namespace nn {

std::vector<NamedParam> Module::Parameters() const {
  std::vector<NamedParam> out = params_;
  for (const auto& [name, child] : children_) {
    for (const auto& p : child->Parameters()) {
      out.push_back({name + "." + p.name, p.var});
    }
  }
  return out;
}

std::vector<QuantTarget> Module::QuantTargets() const {
  std::vector<QuantTarget> out = quant_targets_;
  for (const auto& [name, child] : children_) {
    for (const auto& t : child->QuantTargets()) {
      out.push_back({name + "." + t.name, t.weight, t.scheme, t.slot});
    }
  }
  return out;
}

void Module::RegisterQuantizable(const std::string& param_name, Var weight,
                                 QuantScheme* scheme, QuantSlot* slot) {
  quant_targets_.push_back({param_name, std::move(weight), scheme, slot});
}

namespace {

metrics::Gauge* Int8EnabledGauge() {
  static metrics::Gauge* const g =
      metrics::Registry::Global().GetGauge("qps.nn.int8.enabled");
  return g;
}

}  // namespace

int64_t QuantizeModule(Module* module) {
  int64_t count = 0;
  for (auto& t : module->QuantTargets()) {
    t.slot->stored = QuantizeWeights(t.weight->value, *t.scheme);
    t.slot->packed = PackForGemm(t.slot->stored);
    ++count;
  }
  if (count > 0) Int8EnabledGauge()->Set(1.0);
  return count;
}

bool ModuleHasQuantizedWeights(const Module& module) {
  for (const auto& t : module.QuantTargets()) {
    if (t.slot->ready()) return true;
  }
  return false;
}

void ClearModuleQuantization(Module* module) {
  for (auto& t : module->QuantTargets()) t.slot->Clear();
  Int8EnabledGauge()->Set(0.0);
}

void Module::ZeroGrad() {
  for (const auto& p : Parameters()) p.var->ZeroGrad();
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const auto& p : Parameters()) n += p.var->value.size();
  return n;
}

Var Module::RegisterParam(const std::string& name, Tensor init) {
  Var v = Parameter(std::move(init));
  params_.push_back({name, v});
  return v;
}

void Module::RegisterChild(const std::string& name, Module* child) {
  children_.emplace_back(name, child);
}

Var ApplyActivation(const Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return Relu(x);
    case Activation::kTanh:
      return Tanh(x);
    case Activation::kSigmoid:
      return Sigmoid(x);
    case Activation::kLeakyRelu:
      return LeakyRelu(x);
    case Activation::kNone:
      return x;
  }
  return x;
}

Linear::Linear(int64_t in, int64_t out, Rng* rng, const std::string& name)
    : in_(in), out_(out) {
  const float limit = std::sqrt(6.0f / static_cast<float>(in + out));
  w_ = RegisterParam(name + ".w", Tensor::RandUniform(in, out, rng, limit));
  b_ = RegisterParam(name + ".b", Tensor::Zeros(1, out));
  RegisterQuantizable(name + ".w", w_, &quant_scheme_, &quant_slot_);
}

Var Linear::Forward(const Var& x) const {
  QPS_CHECK(x->value.cols() == in_) << "Linear input width " << x->value.cols()
                                    << " != " << in_;
  return AddRowBroadcast(MatMul(x, w_), b_);
}

void Linear::ForwardTensor(const Tensor& x, Tensor* out) const {
  QPS_CHECK(x.cols() == in_) << "Linear input width " << x.cols() << " != " << in_;
  if (out->rows() != x.rows() || out->cols() != out_) *out = Tensor(x.rows(), out_);
  if (quant_slot_.ready()) {
    // Int8 inference: per-row dynamic activation quantization (row i of the
    // result depends only on row i of x, so batching stays bit-identical to
    // per-row evaluation), bias folded into the dequantize epilogue.
    thread_local QuantizedActs acts;
    QuantizeActivationsPerRow(x, &acts);
    GemmInt8(acts, quant_slot_.packed, b_->value.data(), out);
    return;
  }
  Gemm(GemmLayout::kNone, x, w_->value, out, /*accumulate=*/false);
  AddRowBroadcastInPlace(out, b_->value);
}

void ApplyActivationInPlace(Tensor* x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      ReluInPlace(x);
      return;
    case Activation::kTanh:
      TanhInPlace(x);
      return;
    case Activation::kSigmoid:
      SigmoidInPlace(x);
      return;
    case Activation::kLeakyRelu: {
      float* d = x->data();
      for (int64_t i = 0; i < x->size(); ++i) {
        if (d[i] < 0.0f) d[i] *= 0.01f;
      }
      return;
    }
    case Activation::kNone:
      return;
  }
}

Mlp::Mlp(int64_t in, int64_t hidden, int64_t out, int hidden_layers, Rng* rng,
         Activation act, Activation out_act, const std::string& name)
    : act_(act), out_act_(out_act) {
  QPS_CHECK(hidden_layers >= 0);
  int64_t cur = in;
  for (int i = 0; i < hidden_layers; ++i) {
    layers_.push_back(std::make_unique<Linear>(cur, hidden, rng,
                                               name + ".h" + std::to_string(i)));
    cur = hidden;
  }
  layers_.push_back(std::make_unique<Linear>(cur, out, rng, name + ".out"));
  // The output layer carries the widest per-channel dynamic range (each
  // head predicts a differently-scaled quantity), so it quantizes per
  // channel; hidden layers share one scale.
  layers_.back()->set_quant_scheme(QuantScheme::kPerChannel);
  for (size_t i = 0; i < layers_.size(); ++i) {
    RegisterChild("l" + std::to_string(i), layers_[i].get());
  }
}

Var Mlp::Forward(const Var& x) const {
  Var cur = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    cur = ApplyActivation(layers_[i]->Forward(cur), act_);
  }
  cur = layers_.back()->Forward(cur);
  return ApplyActivation(cur, out_act_);
}

void Mlp::ForwardTensor(const Tensor& x, Tensor* out) const {
  Tensor cur = x;
  Tensor next;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    layers_[i]->ForwardTensor(cur, &next);
    ApplyActivationInPlace(&next, act_);
    std::swap(cur, next);
  }
  layers_.back()->ForwardTensor(cur, out);
  ApplyActivationInPlace(out, out_act_);
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng,
                   const std::string& name)
    : input_(input_size), hidden_(hidden_size) {
  const float limit = std::sqrt(6.0f / static_cast<float>(input_ + 5 * hidden_));
  w_ = RegisterParam(name + ".w",
                     Tensor::RandUniform(input_ + hidden_, 4 * hidden_, rng, limit));
  Tensor bias = Tensor::Zeros(1, 4 * hidden_);
  // Forget-gate bias 1.0 keeps early gradients flowing through the plan tree.
  for (int64_t j = hidden_; j < 2 * hidden_; ++j) bias(0, j) = 1.0f;
  b_ = RegisterParam(name + ".b", std::move(bias));
  RegisterQuantizable(name + ".w", w_, &quant_scheme_, &quant_slot_);
}

LstmCell::State LstmCell::InitialState() const {
  return State{Constant(Tensor::Zeros(1, hidden_)), Constant(Tensor::Zeros(1, hidden_))};
}

LstmCell::State LstmCell::Forward(const Var& x, const State& prev) const {
  QPS_CHECK(x->value.cols() == input_) << "LstmCell input width";
  Var xh = ConcatCols({x, prev.h});
  Var gates = AddRowBroadcast(MatMul(xh, w_), b_);
  Var i = Sigmoid(SliceCols(gates, 0, hidden_));
  Var f = Sigmoid(SliceCols(gates, hidden_, 2 * hidden_));
  Var g = Tanh(SliceCols(gates, 2 * hidden_, 3 * hidden_));
  Var o = Sigmoid(SliceCols(gates, 3 * hidden_, 4 * hidden_));
  Var c = Add(Mul(f, prev.c), Mul(i, g));
  Var h = Mul(o, Tanh(c));
  return State{h, c};
}

void LstmCell::ForwardTensor(const Tensor& x, Tensor* h, Tensor* c) const {
  const int64_t batch = x.rows();
  QPS_CHECK(x.cols() == input_) << "LstmCell input width " << x.cols() << " != " << input_;
  QPS_CHECK(h->rows() == batch && h->cols() == hidden_ && c->rows() == batch &&
            c->cols() == hidden_)
      << "LstmCell state shape: h " << h->rows() << "x" << h->cols() << ", c "
      << c->rows() << "x" << c->cols() << " for batch " << batch << " hidden " << hidden_;
  Tensor xh(batch, input_ + hidden_);
  for (int64_t i = 0; i < batch; ++i) {
    float* dst = xh.data() + i * (input_ + hidden_);
    std::memcpy(dst, x.data() + i * input_, sizeof(float) * static_cast<size_t>(input_));
    std::memcpy(dst + input_, h->data() + i * hidden_,
                sizeof(float) * static_cast<size_t>(hidden_));
  }
  Tensor gates(batch, 4 * hidden_);
  if (quant_slot_.ready()) {
    thread_local QuantizedActs acts;
    QuantizeActivationsPerRow(xh, &acts);
    GemmInt8(acts, quant_slot_.packed, b_->value.data(), &gates);
  } else {
    Gemm(GemmLayout::kNone, xh, w_->value, &gates, /*accumulate=*/false);
    AddRowBroadcastInPlace(&gates, b_->value);
  }
  // Same elementwise math as Forward: the gates through the shared span
  // kernels, then c = f * c + i * g and h = o * tanh(c).
  for (int64_t r = 0; r < batch; ++r) {
    float* ig = gates.data() + r * 4 * hidden_;
    float* fg = ig + hidden_;
    float* gg = ig + 2 * hidden_;
    float* og = ig + 3 * hidden_;
    float* hr = h->data() + r * hidden_;
    float* cr = c->data() + r * hidden_;
    SigmoidInPlace(ig, 2 * hidden_);  // i and f are adjacent
    TanhInPlace(gg, hidden_);
    SigmoidInPlace(og, hidden_);
    for (int64_t j = 0; j < hidden_; ++j) {
      cr[j] = fg[j] * cr[j] + ig[j] * gg[j];
      hr[j] = cr[j];
    }
    TanhInPlace(hr, hidden_);
    for (int64_t j = 0; j < hidden_; ++j) hr[j] = og[j] * hr[j];
  }
}

MultiHeadCrossAttention::MultiHeadCrossAttention(int64_t query_dim,
                                                 int64_t context_dim, int heads,
                                                 int64_t head_dim, int64_t out_dim,
                                                 Rng* rng, const std::string& name)
    : heads_(heads), head_dim_(head_dim) {
  const float ql = std::sqrt(6.0f / static_cast<float>(query_dim + head_dim));
  const float cl = std::sqrt(6.0f / static_cast<float>(context_dim + head_dim));
  for (int h = 0; h < heads; ++h) {
    wq_.push_back(RegisterParam(name + ".wq" + std::to_string(h),
                                Tensor::RandUniform(query_dim, head_dim, rng, ql)));
    wk_.push_back(RegisterParam(name + ".wk" + std::to_string(h),
                                Tensor::RandUniform(context_dim, head_dim, rng, cl)));
    wv_.push_back(RegisterParam(name + ".wv" + std::to_string(h),
                                Tensor::RandUniform(context_dim, head_dim, rng, cl)));
  }
  out_proj_ = std::make_unique<Linear>(heads * head_dim, out_dim, rng, name + ".proj");
  RegisterChild("proj", out_proj_.get());
}

Var MultiHeadCrossAttention::Forward(const Var& query, const Var& context,
                                     Tensor* scores) const {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  if (scores != nullptr) *scores = Tensor(heads_, context->value.rows());
  std::vector<Var> head_outs;
  for (int h = 0; h < heads_; ++h) {
    Var q = MatMul(query, wq_[h]);                       // (1, d)
    Var k = MatMul(context, wk_[h]);                     // (n, d)
    Var v = MatMul(context, wv_[h]);                     // (n, d)
    Var logits = Scale(MatMul(q, Transpose(k)), scale);  // (1, n)
    Var attn = SoftmaxRows(logits);
    if (scores != nullptr) {
      for (int64_t j = 0; j < attn->value.cols(); ++j) {
        (*scores)(h, j) = attn->value(0, j);
      }
    }
    head_outs.push_back(MatMul(attn, v));  // (1, d)
  }
  return out_proj_->Forward(ConcatCols(head_outs));
}

void MultiHeadCrossAttention::ProjectQuery(const Tensor& query, Tensor* q_heads) const {
  if (q_heads->rows() != heads_ || q_heads->cols() != head_dim_) {
    *q_heads = Tensor(heads_, head_dim_);
  }
  Tensor q(1, head_dim_);
  for (int h = 0; h < heads_; ++h) {
    Gemm(GemmLayout::kNone, query, wq_[h]->value, &q, false);
    std::memcpy(q_heads->data() + h * head_dim_, q.data(),
                sizeof(float) * static_cast<size_t>(head_dim_));
  }
}

void MultiHeadCrossAttention::ProjectContext(const Tensor& context, Tensor* keys,
                                             Tensor* values) const {
  const int64_t n = context.rows();
  const int64_t width = heads_ * head_dim_;
  if (keys->rows() != n || keys->cols() != width) *keys = Tensor(n, width);
  if (values->rows() != n || values->cols() != width) *values = Tensor(n, width);
  Tensor k(n, head_dim_), v(n, head_dim_);
  for (int h = 0; h < heads_; ++h) {
    Gemm(GemmLayout::kNone, context, wk_[h]->value, &k, false);
    Gemm(GemmLayout::kNone, context, wv_[h]->value, &v, false);
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(keys->data() + i * width + h * head_dim_, k.data() + i * head_dim_,
                  sizeof(float) * static_cast<size_t>(head_dim_));
      std::memcpy(values->data() + i * width + h * head_dim_, v.data() + i * head_dim_,
                  sizeof(float) * static_cast<size_t>(head_dim_));
    }
  }
}

void MultiHeadCrossAttention::AttendRows(const Tensor& q_heads, const float* keys,
                                         const float* values,
                                         const std::vector<std::vector<int>>& plan_rows,
                                         Tensor* out, Tensor* scores) const {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const int64_t width = heads_ * head_dim_;
  const int64_t plans = static_cast<int64_t>(plan_rows.size());
  QPS_CHECK(q_heads.rows() == heads_ && q_heads.cols() == head_dim_)
      << "AttendRows query heads " << q_heads.rows() << "x" << q_heads.cols() << " for "
      << heads_ << " heads of " << head_dim_;
  QPS_CHECK(scores == nullptr || plans == 1) << "AttendRows scores need exactly one plan";
  // Row p of `concat` is plan p's heads side by side, each the softmax of
  // q_h . K_h^T over the plan's rows times V_h. The products round as the
  // one-row Gemms q_h @ K_h^T and attn @ V_h would over gathered copies.
  Tensor concat(plans, width);
  Tensor attn;
  for (int64_t p = 0; p < plans; ++p) {
    const std::vector<int>& rows = plan_rows[static_cast<size_t>(p)];
    const int64_t n = static_cast<int64_t>(rows.size());
    if (attn.cols() != n) attn = Tensor(1, n);
    if (scores != nullptr) *scores = Tensor(heads_, n);
    for (int h = 0; h < heads_; ++h) {
      const int64_t col = h * head_dim_;
      GatherDots(q_heads.data() + col, head_dim_, keys + col, width, rows.data(), n,
                 attn.data());
      attn.ScaleInPlace(scale);
      SoftmaxRowsInPlace(&attn);
      if (scores != nullptr) {
        std::memcpy(scores->data() + h * n, attn.data(), sizeof(float) * static_cast<size_t>(n));
      }
      GatherWeightedSum(attn.data(), values + col, width, rows.data(), n, head_dim_,
                        concat.data() + p * width + col);
    }
  }
  // The output projection is row-independent, so one GEMM serves all plans.
  out_proj_->ForwardTensor(concat, out);
}

Vae::Vae(int64_t input_dim, int64_t latent_dim, int hidden_layers, Rng* rng,
         const std::string& name)
    : input_(input_dim), latent_(latent_dim) {
  // Encoder widths halve per layer; decoder mirrors them (paper §6.2).
  std::vector<int64_t> widths;
  int64_t w = input_dim;
  for (int i = 0; i < hidden_layers; ++i) {
    w = std::max<int64_t>(2 * latent_dim, w / 2);
    widths.push_back(w);
  }
  int64_t cur = input_dim;
  for (size_t i = 0; i < widths.size(); ++i) {
    enc_.push_back(std::make_unique<Linear>(cur, widths[i], rng,
                                            name + ".enc" + std::to_string(i)));
    cur = widths[i];
  }
  enc_head_ = std::make_unique<Linear>(cur, 2 * latent_dim, rng, name + ".enc_head");
  // mu and logvar channels live on very different scales; per-channel
  // quantization keeps the small-magnitude logvar lanes from being crushed
  // by mu's range.
  enc_head_->set_quant_scheme(QuantScheme::kPerChannel);
  // Start with small posterior variance (logvar ~ -4, std ~ 0.14) so the
  // reparameterization noise does not swamp mu early in training — the
  // classic guard against posterior collapse.
  for (int64_t j = latent_dim; j < 2 * latent_dim; ++j) {
    enc_head_->bias()->value(0, j) = -4.0f;
  }
  cur = latent_dim;
  for (size_t i = 0; i < widths.size(); ++i) {
    const int64_t out = widths[widths.size() - 1 - i];
    dec_.push_back(std::make_unique<Linear>(cur, out, rng,
                                            name + ".dec" + std::to_string(i)));
    cur = out;
  }
  dec_.push_back(std::make_unique<Linear>(cur, input_dim, rng, name + ".dec_out"));
  dec_.back()->set_quant_scheme(QuantScheme::kPerChannel);
  for (size_t i = 0; i < enc_.size(); ++i) RegisterChild("e" + std::to_string(i), enc_[i].get());
  RegisterChild("eh", enc_head_.get());
  for (size_t i = 0; i < dec_.size(); ++i) RegisterChild("d" + std::to_string(i), dec_[i].get());
}

std::pair<Var, Var> Vae::Encode(const Var& x) const {
  QPS_CHECK(x->value.cols() == input_) << "Vae input width";
  Var cur = x;
  for (const auto& l : enc_) cur = Relu(l->Forward(cur));
  Var head = enc_head_->Forward(cur);
  Var mu = SliceCols(head, 0, latent_);
  Var logvar = SliceCols(head, latent_, 2 * latent_);
  return {mu, logvar};
}

Var Vae::Decode(const Var& z) const {
  Var cur = z;
  for (size_t i = 0; i + 1 < dec_.size(); ++i) cur = Relu(dec_[i]->Forward(cur));
  return dec_.back()->Forward(cur);
}

void Vae::ForwardTensor(const Tensor& x, Tensor* mu, Tensor* recon) const {
  QPS_CHECK(x.cols() == input_) << "Vae input width " << x.cols() << " != " << input_;
  const int64_t batch = x.rows();
  Tensor cur = x;
  Tensor next;
  for (const auto& l : enc_) {
    l->ForwardTensor(cur, &next);
    ReluInPlace(&next);
    std::swap(cur, next);
  }
  Tensor head;
  enc_head_->ForwardTensor(cur, &head);
  if (mu->rows() != batch || mu->cols() != latent_) *mu = Tensor(batch, latent_);
  for (int64_t r = 0; r < batch; ++r) {
    std::memcpy(mu->data() + r * latent_, head.data() + r * 2 * latent_,
                sizeof(float) * static_cast<size_t>(latent_));
  }
  cur = *mu;  // inference latent: z = mu
  for (size_t i = 0; i + 1 < dec_.size(); ++i) {
    dec_[i]->ForwardTensor(cur, &next);
    ReluInPlace(&next);
    std::swap(cur, next);
  }
  dec_.back()->ForwardTensor(cur, recon);
}

Vae::Output Vae::Forward(const Var& x, Rng* rng) const {
  auto [mu, logvar] = Encode(x);
  Var z;
  if (rng != nullptr) {
    Tensor eps = Tensor::Randn(1, latent_, rng);
    z = Reparameterize(mu, logvar, eps);
  } else {
    z = mu;
  }
  Var recon = Decode(z);
  return Output{mu, logvar, z, recon};
}

}  // namespace nn
}  // namespace qps
