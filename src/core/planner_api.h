// Copyright 2026 The QPSeeker Authors
//
// The unified planner surface. Three planning backends grew out of the
// paper's experiments — the Selinger-style DP baseline, raw MCTS over the
// learned cost model, and the complexity-routed, guarded degradation
// ladder. Everything above them (qpsql, the plan service, the conformance
// suite) dispatches through this one interface:
//
//   StatusOr<PlanResult> Plan(const query::Query&, const PlanRequestOptions&)
//
// Error-code contract, uniform across backends:
//   kInvalidArgument    malformed query (empty, or a plan failed validation)
//   kNotImplemented     unsupported query shape (cross products)
//   kDeadlineExceeded   the hard planning deadline was blown and the caller
//                       asked to fail instead of taking a best-effort plan
//                       (or a deadline-armed cancel token fired mid-search)
//   kAborted            the request's cancel token was tripped: the caller
//                       abandoned the work and the backend stopped at the
//                       next rollout/step boundary. Never retryable.
//   kResourceExhausted  reserved for the serving layer: the request was shed
//                       by admission control before reaching a backend
//   kUnavailable        reserved for the serving layer: the tenant is
//                       quarantined by its health breaker (fast-fail;
//                       retryable once the breaker half-opens)
//   kInternal           backend defects (diverged model, no plan found)
// No entry point returns a null plan on OK: `PlanResult::plan` is non-null
// and ValidatePlan-clean whenever the status is OK.

#ifndef QPS_CORE_PLANNER_API_H_
#define QPS_CORE_PLANNER_API_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "query/plan.h"
#include "query/query.h"
#include "util/cancel.h"
#include "util/status.h"

namespace qps {
namespace core {

/// Which rung of the planning ladder produced a plan. Backends without a
/// ladder report the single stage they implement.
enum class PlanStage { kNeural, kGreedy, kTraditional };

const char* PlanStageName(PlanStage stage);

/// Per-stage fallback and circuit-breaker counters, exported for serving
/// dashboards (see qpsql's \guards meta-command). Backends without guard
/// rails report all-zero stats through Planner::guard_stats().
struct GuardStats {
  int64_t requests = 0;

  int64_t neural_attempts = 0;
  int64_t neural_success = 0;
  int64_t neural_invalid_plan = 0;  ///< ValidatePlan rejected the MCTS plan
  int64_t neural_nan = 0;           ///< non-finite model score
  int64_t neural_deadline = 0;      ///< planning deadline blown
  int64_t neural_error = 0;         ///< other Status failures (incl. faults)

  int64_t greedy_attempts = 0;
  int64_t greedy_success = 0;
  int64_t greedy_failures = 0;

  int64_t traditional_attempts = 0;
  int64_t traditional_success = 0;
  int64_t traditional_failures = 0;

  int64_t circuit_opens = 0;   ///< breaker quarantines (HealthMonitor)
  int64_t circuit_closes = 0;  ///< breaker recoveries (HealthMonitor)
  int64_t circuit_short_circuits = 0;  ///< requests routed while open

  int64_t NeuralFailures() const {
    return neural_invalid_plan + neural_nan + neural_deadline + neural_error;
  }

  std::string ToString() const;
};

/// External evaluator for candidate-plan batches. The serving layer
/// injects one per request to coalesce model evaluations from different
/// in-flight queries into shared batched forwards (serve::BatchRendezvous);
/// null means "call the model directly". Must return one NodeStats triple
/// per input plan, bit-identical to QpSeeker::PredictPlansBatch.
using BatchEvalFn = std::function<std::vector<query::NodeStats>(
    const query::Query&, const std::vector<const query::PlanNode*>&)>;

/// Per-request knobs, identical for every backend.
struct PlanRequestOptions {
  /// Planning deadline in ms, measured from Plan() entry (0 = none).
  /// Neural backends clamp their anytime search budget to it and return
  /// the best plan found so far when it expires — a deadline produces a
  /// valid (if less optimized) plan, not a failure.
  double deadline_ms = 0.0;

  /// When true a blown deadline returns kDeadlineExceeded instead of the
  /// best-effort plan.
  bool fail_on_deadline = false;

  /// Overrides the backend's MCTS seed when non-zero, so callers (and the
  /// serving determinism tests) can pin per-request randomness.
  uint64_t seed = 0;

  /// Tenant context, stamped by the serving layer (serve::PlanRequest) for
  /// attribution in traces/audit. Backends must not let it influence the
  /// plan: plans are a function of (query, seed) alone, so sharded
  /// multi-tenant serving stays bit-identical to single-tenant serving.
  /// It only keys the ladder's breaker, which decides whether the neural
  /// rung is tried at all.
  std::string tenant_id;

  /// Cross-query batch evaluator; see BatchEvalFn.
  BatchEvalFn evaluate;

  /// Cooperative cancellation (util/cancel.h), polled at rollout/step/DP
  /// boundaries. Null = never cancelled. Non-owning: the caller keeps the
  /// token alive for the whole Plan() call. A tripped token surfaces as
  /// kAborted (explicit Cancel) or kDeadlineExceeded (armed deadline) —
  /// cancellation wins over best-so-far results, because the caller has
  /// already stopped listening.
  const util::CancelToken* cancel = nullptr;
};

/// The unified planning result, identical for every backend.
struct PlanResult {
  query::PlanPtr plan;                       ///< never null on OK status
  PlanStage stage = PlanStage::kTraditional;
  /// Root estimate triple: the cost-model annotation of the plan root,
  /// with runtime_ms overridden by the learned model's predicted runtime
  /// on the neural/greedy stages.
  query::NodeStats node_stats;
  double plan_ms = 0.0;      ///< wall planning time inside Plan()
  int plans_evaluated = 0;   ///< model forwards (0 on the traditional path)
  bool used_neural = false;  ///< the learned model was consulted
  bool deadline_hit = false; ///< search truncated by the request deadline
  std::string fallback_reason;  ///< ladder detail; empty when first choice served
};

/// Abstract planning backend. Implementations: BaselinePlanner,
/// MctsPlanner (planner_backends.h), and GuardedPlanner
/// (guarded_planner.h).
///
/// Thread-safety contract: Plan() is const and safe to call concurrently
/// from any number of threads on one instance. A backend keeps no
/// per-request state in its members; anything it does update across calls
/// (the ladder's counters and breaker) is synchronized. Concurrent calls
/// with fixed seeds produce the same plans as serial ones, so the serving
/// layer shares one instance among all of its workers.
class Planner {
 public:
  virtual ~Planner() = default;

  /// Stable backend name ("baseline", "neural", "guarded").
  virtual const char* name() const = 0;

  virtual StatusOr<PlanResult> Plan(const query::Query& q,
                                    const PlanRequestOptions& opts) const = 0;

  /// Guard/breaker counters; all-zero for backends without a ladder.
  virtual GuardStats guard_stats() const { return GuardStats{}; }
};

/// Shared precondition check used by every backend: non-empty and free of
/// cross products. Returns kInvalidArgument / kNotImplemented.
Status CheckPlannable(const query::Query& q);

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_PLANNER_API_H_
