// Copyright 2026 The QPSeeker Authors
//
// First-order optimizers over Module parameters.

#ifndef QPS_NN_OPTIM_H_
#define QPS_NN_OPTIM_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "util/status.h"

namespace qps {
namespace nn {

/// Common interface: Step() applies accumulated gradients, then the caller
/// zero-grads before the next batch.
class Optimizer {
 public:
  explicit Optimizer(std::vector<NamedParam> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void Step() = 0;

  /// Global-norm gradient clipping; returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  /// Optimizer state as named tensors (slot variables keyed by parameter
  /// name, e.g. "m.vae.enc0.w") and named scalars (e.g. Adam's step count
  /// "t"), in a stable order — the payload of a resumable training
  /// checkpoint (nn/serialize).
  virtual void ExportState(
      std::vector<std::pair<std::string, const Tensor*>>* tensors,
      std::vector<std::pair<std::string, double>>* scalars) const = 0;

  /// Restores state exported by the same optimizer type over the same
  /// parameter list. Fails (without partial mutation) when an entry is
  /// missing or a shape differs, naming the offending slot.
  virtual Status ImportState(
      const std::unordered_map<std::string, const Tensor*>& tensors,
      const std::unordered_map<std::string, double>& scalars) = 0;

 protected:
  std::vector<NamedParam> params_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<NamedParam> params, float lr, float momentum = 0.0f);
  void Step() override;
  void ExportState(std::vector<std::pair<std::string, const Tensor*>>* tensors,
                   std::vector<std::pair<std::string, double>>* scalars)
      const override;
  Status ImportState(
      const std::unordered_map<std::string, const Tensor*>& tensors,
      const std::unordered_map<std::string, double>& scalars) override;

 private:
  float lr_, momentum_;
  std::vector<Tensor> velocity_;
};

/// Adam (Kingma & Ba) — the paper trains with lr 1e-3 (§6.2).
class Adam : public Optimizer {
 public:
  Adam(std::vector<NamedParam> params, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void Step() override;
  void ExportState(std::vector<std::pair<std::string, const Tensor*>>* tensors,
                   std::vector<std::pair<std::string, double>>* scalars)
      const override;
  Status ImportState(
      const std::unordered_map<std::string, const Tensor*>& tensors,
      const std::unordered_map<std::string, double>& scalars) override;

 private:
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace nn
}  // namespace qps

#endif  // QPS_NN_OPTIM_H_
