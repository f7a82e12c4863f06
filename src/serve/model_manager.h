// Copyright 2026 The QPSeeker Authors
//
// Validated hot reload of the serving model. A reload never touches the
// query path until the candidate has earned it:
//
//   Reload(path)
//     -> load: the factory builds a *candidate* QpSeeker off to the side
//        and restores the checkpoint through the hardened loader — a
//        corrupt or truncated file fails here, live model untouched.
//     -> probe: the candidate predicts every canary case (a small labeled
//        workload registered up front). Any non-finite prediction, or a
//        mean q-error worse than `max_qerror_ratio` times the live model's
//        own canary q-error, fails the gate.
//     -> swap: the swap hook (ShardedPlanService::SwapTenantModel)
//        publishes a new model generation without waiting for in-flight
//        requests, which finish on the generation they started with; the
//        manager's shared_ptr handoff keeps the old model alive for any
//        reader that grabbed it just before the swap.
//     -> rollback: any failure leaves the previous model serving and bumps
//        qps.model.reload_failures; successes bump qps.model.reloads.
//
// Thread-safety: live() may be called from any thread; Reload calls are
// serialized against each other and run entirely off the query path (the
// candidate is private to the reloading thread until the swap).

#ifndef QPS_SERVE_MODEL_MANAGER_H_
#define QPS_SERVE_MODEL_MANAGER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/qpseeker.h"
#include "obs/window.h"

namespace qps {
namespace serve {

/// One labeled probe case: a query, a plan for it, and ground-truth stats
/// in `plan->actual` to compute q-error against.
struct CanaryCase {
  query::Query query;
  query::PlanPtr plan;
};

/// Builds a fresh model instance and loads the checkpoint at `path` into
/// it. Returning an error fails the reload cleanly.
using ModelFactory =
    std::function<StatusOr<std::shared_ptr<core::QpSeeker>>(const std::string&)>;

struct ModelManagerOptions {
  /// Gate: candidate mean canary q-error must be <= this ratio times the
  /// live model's (both measured on the same canary set).
  double max_qerror_ratio = 2.0;

  /// Floor applied to the live baseline before the ratio, so a
  /// near-perfect live model (q-error ~1) doesn't make the gate
  /// unpassable for an equally good candidate.
  double min_live_qerror = 1.05;
};

class ModelManager {
 public:
  struct Stats {
    int64_t reloads = 0;          ///< candidates that passed and now serve(d)
    int64_t reload_failures = 0;  ///< load / probe / swap-hook failures
    double live_qerror = 0.0;     ///< canary baseline of the serving model
    double last_candidate_qerror = 0.0;  ///< most recent probe result
    /// Whether the most recent probed candidate served int8 weights (the
    /// quant gate: its canary q-error was measured through the int8 path).
    bool last_candidate_quantized = false;
  };

  /// `initial` is the currently serving model (may be null when serving
  /// starts baseline-only); `factory` builds candidates for Reload.
  ModelManager(std::shared_ptr<core::QpSeeker> initial, ModelFactory factory,
               ModelManagerOptions options = {});

  /// The serving model. Holders keep their snapshot alive across swaps.
  std::shared_ptr<const core::QpSeeker> live() const;

  /// Registers the probe workload and measures the live model's baseline
  /// q-error on it. Call while the live model is quiescent (startup, or
  /// right after a swap completes) — the forward pass is not concurrently
  /// callable with serving traffic.
  Status SetCanaries(std::vector<CanaryCase> canaries);

  /// Installed swap callback, e.g. ShardedPlanService::SwapTenantModel
  /// bound to one tenant: receives the validated candidate and must
  /// atomically switch serving over to it.
  /// A failing hook counts as a failed reload (live model keeps serving).
  void SetSwapHook(
      std::function<Status(std::shared_ptr<const core::QpSeeker>)> hook);

  /// Loads, validates, and (on success) swaps in the checkpoint at `path`.
  /// On any failure the live model keeps serving and the Status says which
  /// stage rejected the candidate.
  Status Reload(const std::string& path);

  Stats stats() const;

 private:
  /// Mean canary q-error of `model`, which must not be serving traffic.
  /// Fails on any non-finite prediction. Returns 1 (perfect) with no
  /// canaries registered.
  StatusOr<double> CanaryQError(const core::QpSeeker& model) const;

  const ModelFactory factory_;
  const ModelManagerOptions options_;

  /// Serializes Reload calls end to end.
  std::mutex reload_mu_;

  mutable std::mutex mu_;  ///< guards everything below
  std::shared_ptr<core::QpSeeker> live_;
  /// Immutable snapshot: probes copy the shared_ptr under mu_ and keep the
  /// cases alive even if SetCanaries swaps in a new set mid-probe.
  std::shared_ptr<const std::vector<CanaryCase>> canaries_;
  std::function<Status(std::shared_ptr<const core::QpSeeker>)> swap_hook_;
  /// The q-error fields of stats(); reloads and failures live in the
  /// owned counters below.
  Stats stats_;

  obs::OwnedCounter reloads_{"qps.model.reloads"};
  obs::OwnedCounter reload_failures_{"qps.model.reload_failures"};
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_MODEL_MANAGER_H_
