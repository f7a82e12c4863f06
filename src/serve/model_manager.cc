// Copyright 2026 The QPSeeker Authors

#include "serve/model_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"

namespace qps {
namespace serve {

namespace {

/// Quant-gate outcome of a quantized candidate. No Stats field mirrors
/// it, so it stays a plain registry counter, resolved on the rare reload
/// path.
void CountQuantGate(bool pass) {
  metrics::Registry::Global()
      .GetCounter(pass ? "qps.model.quant_gate.pass"
                       : "qps.model.quant_gate.fail")
      ->Increment();
}

/// max(p/a, a/p) with both sides clamped away from zero — the standard
/// cardinality-estimation accuracy measure, applied to all three targets.
double QError(double predicted, double actual) {
  const double p = std::max(std::abs(predicted), 1e-6);
  const double a = std::max(std::abs(actual), 1e-6);
  return std::max(p / a, a / p);
}

}  // namespace

ModelManager::ModelManager(std::shared_ptr<core::QpSeeker> initial,
                           ModelFactory factory, ModelManagerOptions options)
    : factory_(std::move(factory)),
      options_(options),
      live_(std::move(initial)) {}

std::shared_ptr<const core::QpSeeker> ModelManager::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

StatusOr<double> ModelManager::CanaryQError(const core::QpSeeker& model) const {
  // Callers hand us a quiescent model (a private candidate, or the live
  // model before serving starts), so running the forward here is safe. The
  // snapshot shared_ptr keeps the cases alive past the lock even if a
  // concurrent SetCanaries replaces the set mid-probe.
  std::shared_ptr<const std::vector<CanaryCase>> cases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cases = canaries_;
  }
  if (cases == nullptr || cases->empty()) return 1.0;

  double total = 0.0;
  for (size_t i = 0; i < cases->size(); ++i) {
    const CanaryCase& c = (*cases)[i];
    const query::NodeStats pred = model.PredictPlan(c.query, *c.plan);
    if (!query::StatsAreFinite(pred)) {
      return Status::Internal("canary #" + std::to_string(i) +
                              ": non-finite prediction");
    }
    const query::NodeStats& truth = c.plan->actual;
    total += (QError(pred.cardinality, truth.cardinality) +
              QError(pred.cost, truth.cost) +
              QError(pred.runtime_ms, truth.runtime_ms)) /
             3.0;
  }
  return total / static_cast<double>(cases->size());
}

Status ModelManager::SetCanaries(std::vector<CanaryCase> canaries) {
  for (size_t i = 0; i < canaries.size(); ++i) {
    if (canaries[i].plan == nullptr) {
      return Status::InvalidArgument("canary #" + std::to_string(i) +
                                     " has no plan");
    }
  }
  auto shared =
      std::make_shared<const std::vector<CanaryCase>>(std::move(canaries));
  std::shared_ptr<core::QpSeeker> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    canaries_ = std::move(shared);
    live = live_;
  }
  if (live == nullptr) return Status::OK();
  QPS_ASSIGN_OR_RETURN(const double baseline, CanaryQError(*live));
  std::lock_guard<std::mutex> lock(mu_);
  stats_.live_qerror = baseline;
  return Status::OK();
}

void ModelManager::SetSwapHook(
    std::function<Status(std::shared_ptr<const core::QpSeeker>)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  swap_hook_ = std::move(hook);
}

Status ModelManager::Reload(const std::string& path) {
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  auto fail = [this](Status st) {
    reload_failures_.Increment();
    QPS_LOG(Warning) << "model reload rejected: " << st.message();
    return st;
  };

  // Stage 1: build the candidate off the query path. The hardened loader
  // rejects corrupt/truncated checkpoints here.
  auto candidate_or = factory_(path);
  if (!candidate_or.ok()) return fail(candidate_or.status());
  std::shared_ptr<core::QpSeeker> candidate = std::move(*candidate_or);
  if (candidate == nullptr) {
    return fail(Status::Internal("model factory returned null"));
  }

  // A quantized candidate goes through the same q-error gate, but its
  // outcome is additionally published as the quant gate: the probe below
  // measures the int8 inference path against the live (typically f32)
  // baseline, so a quantization that drifts plan quality rolls back here.
  const bool candidate_quantized = candidate->quantized();

  // Stage 2: validation probe. The candidate is private to this thread, so
  // its (non-reentrant) forward pass is safe to run directly.
  auto qerror_or = CanaryQError(*candidate);
  if (!qerror_or.ok()) {
    if (candidate_quantized) CountQuantGate(false);
    return fail(qerror_or.status());
  }
  const double candidate_qerror = *qerror_or;

  double baseline;
  std::function<Status(std::shared_ptr<const core::QpSeeker>)> hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.last_candidate_qerror = candidate_qerror;
    stats_.last_candidate_quantized = candidate_quantized;
    baseline = std::max(stats_.live_qerror, options_.min_live_qerror);
    hook = swap_hook_;
  }
  if (candidate_quantized) {
    metrics::Registry::Global()
        .GetGauge("qps.model.quant_gate.ratio")
        ->Set(candidate_qerror / baseline);
  }
  const double bound = options_.max_qerror_ratio * baseline;
  if (candidate_qerror > bound) {
    if (candidate_quantized) CountQuantGate(false);
    return fail(Status::Aborted(
        "candidate canary q-error " + std::to_string(candidate_qerror) +
        " exceeds gate " + std::to_string(bound) + " (live baseline " +
        std::to_string(baseline) + ")"));
  }
  if (candidate_quantized) CountQuantGate(true);

  // Stage 3: atomic swap. The hook quiesces in-flight requests; a hook
  // failure means the previous model is still serving (nothing swapped).
  if (hook) {
    if (Status st = hook(candidate); !st.ok()) return fail(st);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    live_ = std::move(candidate);
    stats_.live_qerror = candidate_qerror;
  }
  reloads_.Increment();
  QPS_LOG(Info) << "model reloaded from " << path << " (canary q-error "
                << candidate_qerror
                << (candidate_quantized ? ", int8 inference)" : ")");
  return Status::OK();
}

ModelManager::Stats ModelManager::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  out.reloads = reloads_.value();
  out.reload_failures = reload_failures_.value();
  return out;
}

}  // namespace serve
}  // namespace qps
