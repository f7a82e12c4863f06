// Copyright 2026 The QPSeeker Authors
//
// The ladder planner: the paper's §7.3 hybrid direction ("a neural planner
// kicks in for complex queries where traditional optimizers have trouble
// handling"), hardened for serving. Simple queries (few relations) go to
// the statistics-based DP planner, whose estimates are accurate there
// (Tables 4/5 show PostgreSQL winning on Synthetic); complex queries go to
// QPSeeker+MCTS. A learned planner is only deployable when it degrades
// gracefully on model misbehavior, so every plan is validated and
// score-checked, and a failing neural rung walks a degradation ladder:
//
//   neural MCTS (deadline-enforced) -> GreedyPlan -> traditional DP planner
//
// The neural rung is gated by a core::HealthMonitor breaker (health.h),
// keyed per tenant: once enough neural attempts fail inside its rolling
// window the breaker opens and complex queries route straight to the DP
// planner ("circuit open"); after the cool-down, live requests probe the
// neural rung again and successful probes close it. All fallbacks are
// counted in GuardStats.
//
// With every fault point disarmed, each request takes the same rung with
// the same MCTS seed as plain MctsPlan (complex) or the DP planner (simple)
// — guarded_planner_test asserts byte-identical rendered plans.

#ifndef QPS_CORE_GUARDED_PLANNER_H_
#define QPS_CORE_GUARDED_PLANNER_H_

#include <memory>
#include <mutex>
#include <string>

#include "core/health.h"
#include "core/mcts.h"
#include "core/planner_api.h"
#include "optimizer/planner.h"
#include "util/clock.h"

namespace qps {
namespace core {

/// Complexity routing for the ladder.
struct HybridOptions {
  /// Queries with at least this many relations are planned neurally.
  int neural_min_relations = 4;
  MctsOptions mcts;
};

struct GuardedOptions {
  /// Routing + MCTS options.
  HybridOptions hybrid;

  /// Planning deadline for the neural path (0 = rely on the MCTS time
  /// budget alone). When set, the MCTS budget is clamped to it and blowing
  /// four times the deadline counts as a neural failure.
  double neural_deadline_ms = 0.0;

  /// Injectable time source shared by the breaker and the planning-time
  /// Timer (util/clock.h), so tests substitute one ManualClock for all of
  /// them. nullptr = Clock::Default().
  const Clock* clock = nullptr;
};

/// The degradation-ladder planner. Plan() is thread-safe (planner_api.h):
/// each request counts into its own GuardStats and folds them into the
/// planner's total once, and the breaker locks internally. One instance
/// therefore sees, and gates, the whole traffic of its callers.
class GuardedPlanner : public Planner {
 public:
  GuardedPlanner(const QpSeeker* model, const optimizer::Planner* baseline,
                 GuardedOptions options = {});

  /// Per-request deadline, seed, and batch evaluator thread into the
  /// neural and greedy rungs; `ropts.tenant_id` picks the breaker key.
  StatusOr<PlanResult> Plan(const query::Query& q,
                            const PlanRequestOptions& ropts) const override;

  const char* name() const override { return "guarded"; }

  /// This planner's counters, plus the breaker's transitions read from the
  /// monitor.
  GuardStats guard_stats() const override;

  /// Breaker state of `tenant_id`'s ladder (kClosed before any traffic).
  HealthState circuit_state(const std::string& tenant_id = "") const;

  const GuardedOptions& options() const { return options_; }

 private:
  const Clock& clock() const {
    return options_.clock != nullptr ? *options_.clock : *Clock::Default();
  }

  /// The ladder itself; counts into the request-local `stats`.
  StatusOr<PlanResult> RunLadder(const query::Query& q,
                                 const PlanRequestOptions& ropts,
                                 GuardStats* stats) const;

  /// One rung: plan, validate, score-check. Returns the failure reason or
  /// OK with `*out` filled.
  Status TryNeural(const query::Query& q, const PlanRequestOptions& ropts,
                   GuardStats* stats, PlanResult* out) const;
  Status TryGreedy(const query::Query& q, const PlanRequestOptions& ropts,
                   GuardStats* stats, PlanResult* out) const;
  Status TryTraditional(const query::Query& q, const PlanRequestOptions& ropts,
                        GuardStats* stats, PlanResult* out) const;

  const QpSeeker* model_;
  const optimizer::Planner* baseline_;
  GuardedOptions options_;
  /// Thread-safe; HealthOptions defaults on options_.clock.
  std::unique_ptr<HealthMonitor> breaker_;

  mutable std::mutex stats_mu_;
  mutable GuardStats stats_;  ///< guarded by stats_mu_
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_GUARDED_PLANNER_H_
