// Copyright 2026 The QPSeeker Authors
//
// Neural building blocks used by QPSeeker and the baselines: Linear / MLP,
// an LSTM cell (plan-tree encoder node), multi-head cross-attention
// (QPAttention), and a VAE (the Cost Modeler).

#ifndef QPS_NN_LAYERS_H_
#define QPS_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"
#include "nn/quant.h"
#include "util/rng.h"

namespace qps {
namespace nn {

/// A named trainable tensor (leaf Var kept alive across steps).
struct NamedParam {
  std::string name;
  Var var;
};

/// One weight a layer volunteered for int8 inference: the f32 source Var,
/// the layer's scheme choice, and the slot the quantized form lives in.
/// `name` matches the weight's Parameters() name exactly, so the
/// checkpoint quant section and the f32 tensor section key identically.
struct QuantTarget {
  std::string name;
  Var weight;
  QuantScheme* scheme;
  QuantSlot* slot;
};

/// Base class for trainable components. Subclasses register parameters and
/// child modules; Parameters() flattens the tree for optimizers/serializers.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters, depth-first, with hierarchical names.
  std::vector<NamedParam> Parameters() const;

  /// All int8-capable weights, depth-first, names prefixed like
  /// Parameters(). Slots may or may not be populated.
  std::vector<QuantTarget> QuantTargets() const;

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Total scalar parameter count.
  int64_t NumParameters() const;

 protected:
  Var RegisterParam(const std::string& name, Tensor init);
  void RegisterChild(const std::string& name, Module* child);

  /// Declares `weight` (already registered under `param_name`) as eligible
  /// for int8 inference. The layer owns scheme + slot; the pointers must
  /// outlive the module tree (they are members of the registering layer).
  void RegisterQuantizable(const std::string& param_name, Var weight,
                           QuantScheme* scheme, QuantSlot* slot);

 private:
  std::vector<NamedParam> params_;
  std::vector<QuantTarget> quant_targets_;
  std::vector<std::pair<std::string, Module*>> children_;
};

/// Quantizes every registered target in place (symmetric int8 weights,
/// packed for the GEMM kernel) and flips the `qps.nn.int8.enabled` gauge.
/// Returns the number of weights quantized. Inference-only: autograd
/// Forward paths keep using the f32 weights; Train must clear this.
int64_t QuantizeModule(Module* module);

/// True when any target currently holds a ready quantized slot.
bool ModuleHasQuantizedWeights(const Module& module);

/// Drops all quantized slots (back to pure f32 inference) and clears the
/// `qps.nn.int8.enabled` gauge.
void ClearModuleQuantization(Module* module);

/// Nonlinearity selector for MLP hidden layers.
enum class Activation { kRelu, kTanh, kSigmoid, kLeakyRelu, kNone };

Var ApplyActivation(const Var& x, Activation act);

/// y = x @ W + b with Xavier-uniform init.
class Linear : public Module {
 public:
  Linear(int64_t in, int64_t out, Rng* rng, const std::string& name = "linear");

  /// x: (m, in) -> (m, out).
  Var Forward(const Var& x) const;

  /// Autograd-free inference path: *out = x @ W + b. `out` is resized.
  void ForwardTensor(const Tensor& x, Tensor* out) const;

  /// Direct parameter access (e.g. for custom bias initialization).
  const Var& weight() const { return w_; }
  const Var& bias() const { return b_; }

  /// Scheme used when this layer's weight is next quantized (default
  /// per-tensor; output layers opt into per-channel). Must be set before
  /// QuantizeModule / SaveModuleQuantized.
  void set_quant_scheme(QuantScheme scheme) { quant_scheme_ = scheme; }

 private:
  int64_t in_, out_;
  Var w_, b_;
  QuantScheme quant_scheme_ = QuantScheme::kPerTensor;
  QuantSlot quant_slot_;
};

/// Feed-forward stack: `hidden_layers` hidden Linear+activation layers of
/// width `hidden`, then a Linear to `out` (optionally activated).
class Mlp : public Module {
 public:
  Mlp(int64_t in, int64_t hidden, int64_t out, int hidden_layers, Rng* rng,
      Activation act = Activation::kRelu, Activation out_act = Activation::kNone,
      const std::string& name = "mlp");

  Var Forward(const Var& x) const;

  /// Autograd-free inference path; rows of x are independent samples.
  void ForwardTensor(const Tensor& x, Tensor* out) const;

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  Activation act_;
  Activation out_act_;
};

/// In-place activation used by the tensor inference paths.
void ApplyActivationInPlace(Tensor* x, Activation act);

/// A single LSTM cell; the plan encoder instantiates one shared cell and
/// applies it at every plan node (bottom-up over the plan tree).
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_size, int64_t hidden_size, Rng* rng,
           const std::string& name = "lstm");

  struct State {
    Var h;  ///< (1, hidden)
    Var c;  ///< (1, hidden)
  };

  /// Zero initial state (used for leaf nodes, which have no children).
  State InitialState() const;

  /// One step: x (1, input), prev state -> next state.
  State Forward(const Var& x, const State& prev) const;

  /// Autograd-free batched step: x (batch, input) with h/c (batch, hidden)
  /// updated in place — row i is an independent LSTM instance. This is how
  /// the batched plan encoder advances a whole tree level in one GEMM.
  void ForwardTensor(const Tensor& x, Tensor* h, Tensor* c) const;

  int64_t hidden_size() const { return hidden_; }
  int64_t input_size() const { return input_; }

 private:
  int64_t input_, hidden_;
  Var w_;  ///< (input+hidden, 4*hidden), gate order [i, f, g, o]
  Var b_;  ///< (1, 4*hidden); forget gate bias initialized to 1
  QuantScheme quant_scheme_ = QuantScheme::kPerTensor;
  QuantSlot quant_slot_;
};

/// Multi-head cross-attention between one query vector and n context rows
/// (QPSeeker's QPAttention, Perceiver-style). Output: (1, out_dim).
class MultiHeadCrossAttention : public Module {
 public:
  MultiHeadCrossAttention(int64_t query_dim, int64_t context_dim, int heads,
                          int64_t head_dim, int64_t out_dim, Rng* rng,
                          const std::string& name = "xattn");

  /// query: (1, query_dim); context: (n, context_dim). When `scores` is
  /// non-null it receives the attention weights, one row per head
  /// (heads, n), for inspecting which plan nodes dominate the estimate; a
  /// forward keeps no state, so concurrent forwards over shared weights
  /// need no synchronization.
  Var Forward(const Var& query, const Var& context, Tensor* scores = nullptr) const;

  /// The autograd-free inference path, same semantics as Forward, is three
  /// steps: ProjectQuery, then ProjectContext, then AttendRows. A caller
  /// scoring many contexts against one query runs the first step once and
  /// the second once per distinct context row, and gets the same bits.
  ///
  /// Step 1: *q_heads = (heads, head_dim), row h = query (1, query_dim) @ Wq[h].
  void ProjectQuery(const Tensor& query, Tensor* q_heads) const;

  /// Step 2: *keys and *values = (n, heads * head_dim); columns
  /// [h * head_dim, (h + 1) * head_dim) of row i are context row i @ Wk[h]
  /// (resp. Wv[h]). Row i depends only on context row i, so rows may be
  /// projected in any grouping and read later by row id.
  void ProjectContext(const Tensor& context, Tensor* keys, Tensor* values) const;

  /// Step 3, for a batch of contexts: plan p attends the projected query
  /// over the projected context rows plan_rows[p] of `keys` and `values`
  /// (row-major, heads * head_dim wide, laid out as ProjectContext writes
  /// them, read in place), then the output projection runs once over all
  /// plans. *out = (plans, out_dim); row p is bit-identical to attending
  /// plan p alone. `scores`, only for a single plan, as in Forward.
  void AttendRows(const Tensor& q_heads, const float* keys, const float* values,
                  const std::vector<std::vector<int>>& plan_rows, Tensor* out,
                  Tensor* scores = nullptr) const;

  int heads() const { return heads_; }
  int64_t head_dim() const { return head_dim_; }

 private:
  int heads_;
  int64_t head_dim_;
  std::vector<Var> wq_, wk_, wv_;  ///< per head
  std::unique_ptr<Linear> out_proj_;
};

/// Variational autoencoder over QEP embeddings (the Cost Modeler, §4.4).
/// Encoder/decoder are MLPs whose hidden widths halve/double per layer, as
/// described in §6.2 of the paper.
class Vae : public Module {
 public:
  Vae(int64_t input_dim, int64_t latent_dim, int hidden_layers, Rng* rng,
      const std::string& name = "vae");

  struct Output {
    Var mu;       ///< (1, latent)
    Var logvar;   ///< (1, latent)
    Var z;        ///< (1, latent) sampled (training) or = mu (inference)
    Var recon;    ///< (1, input_dim)
  };

  /// Full pass. If `rng` is null the latent is deterministic (z = mu).
  Output Forward(const Var& x, Rng* rng) const;

  /// Autograd-free inference pass with z = mu for a row batch: fills
  /// mu (batch, latent) and recon (batch, input_dim).
  void ForwardTensor(const Tensor& x, Tensor* mu, Tensor* recon) const;

  /// Encoder only: returns (mu, logvar).
  std::pair<Var, Var> Encode(const Var& x) const;
  Var Decode(const Var& z) const;

  int64_t latent_dim() const { return latent_; }

 private:
  int64_t input_, latent_;
  std::vector<std::unique_ptr<Linear>> enc_;
  std::unique_ptr<Linear> enc_head_;  ///< to 2*latent (mu | logvar)
  std::vector<std::unique_ptr<Linear>> dec_;
};

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_LAYERS_H_
