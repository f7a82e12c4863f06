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

#include <atomic>
#include <memory>
#include <string>

#include "core/health.h"
#include "core/mcts.h"
#include "core/planner_api.h"
#include "obs/window.h"
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
/// every counter is an atomic or an owned metric, and the breaker locks
/// internally. One instance therefore sees, and gates, the whole traffic
/// of its callers.
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

  /// One rung: plan, validate, score-check. Returns the failure reason or
  /// OK with `*out` filled.
  Status TryNeural(const query::Query& q, const PlanRequestOptions& ropts,
                   PlanResult* out) const;
  Status TryGreedy(const query::Query& q, const PlanRequestOptions& ropts,
                   PlanResult* out) const;
  Status TryTraditional(const query::Query& q, const PlanRequestOptions& ropts,
                        PlanResult* out) const;

  const QpSeeker* model_;
  const optimizer::Planner* baseline_;
  GuardedOptions options_;
  /// Thread-safe; HealthOptions defaults on options_.clock.
  std::unique_ptr<HealthMonitor> breaker_;

  /// The ladder's ledger (DESIGN.md §8): one call per event. Events with a
  /// qps.guarded.* family are owned metrics; `served_` doubles as the
  /// per-rung success counts of GuardStats.
  obs::OwnedCounter requests_;
  obs::OwnedCounter served_[3];  ///< indexed by PlanStage
  obs::OwnedCounter fallbacks_;
  obs::OwnedCounter circuit_short_circuits_;
  obs::OwnedHistogram plan_ms_;
  /// Rung outcomes without a registry family.
  mutable std::atomic<int64_t> neural_attempts_{0};
  mutable std::atomic<int64_t> neural_invalid_plan_{0};
  mutable std::atomic<int64_t> neural_nan_{0};
  mutable std::atomic<int64_t> neural_deadline_{0};
  mutable std::atomic<int64_t> neural_error_{0};
  mutable std::atomic<int64_t> greedy_attempts_{0};
  mutable std::atomic<int64_t> greedy_failures_{0};
  mutable std::atomic<int64_t> traditional_attempts_{0};
  mutable std::atomic<int64_t> traditional_failures_{0};
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_GUARDED_PLANNER_H_
