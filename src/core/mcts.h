// Copyright 2026 The QPSeeker Authors
//
// Inference-time planning (paper §5.2): vanilla Monte Carlo Tree Search
// over left-deep plan prefixes. Each action appends one relation (with a
// scan operator) and, for non-first actions, a join operator. Rollouts
// complete the plan uniformly at random; the completed plan is scored with
// QPSeeker's learned cost model (predicted runtime). UCT guides selection;
// a node's reward counts how often it appears in the best plan found so
// far, exactly as in the paper.

#ifndef QPS_CORE_MCTS_H_
#define QPS_CORE_MCTS_H_

#include "core/planner_api.h"
#include "core/qpseeker.h"

namespace qps {
namespace core {

/// Search settings, fixed per planner. Everything that varies per request
/// (seed override, deadline, batch evaluator, cancel token) comes from the
/// caller's PlanRequestOptions instead.
struct MctsOptions {
  double time_budget_ms = 200.0;  ///< paper: 200ms planning cut-off
  int max_rollouts = 100000;      ///< secondary cap (deterministic tests)
  double exploration_c = 0.5;     ///< paper: C = 0.5 after sweeping {0.25,0.5,0.75}
  uint64_t seed = 99;

  /// Batched rollouts. Each iteration selects, expands, and
  /// random-completes up to `eval_batch` candidate plans with one seeded
  /// rng (visits along each chosen path count immediately, a virtual loss
  /// that steers later candidates of the same batch away), evaluates them
  /// as ONE batched model forward on the calling thread, and backpropagates
  /// rewards in selection order. Plans are therefore a function of
  /// (query, seed, eval_batch).
  ///
  /// eval_batch: candidates per batched forward; 0 = auto, 8 * threads
  /// (1 when threads <= 1) — batching is what amortizes GEMM weight
  /// traffic. `threads` starts no thread: its only effect is that
  /// automatic batch size.
  int threads = 1;
  int eval_batch = 0;
};

struct MctsResult {
  query::PlanPtr plan;             ///< best plan found (estimates annotated)
  double predicted_runtime_ms = 0.0;
  int plans_evaluated = 0;         ///< paper §7.2 reports these counts
  double planning_ms = 0.0;
  bool deadline_hit = false;       ///< search truncated by request.deadline_ms
};

/// Plans `q` with MCTS guided by a trained QPSeeker model. From `request`
/// it reads:
///   - seed: overrides search.seed when non-zero;
///   - deadline_ms: truncates the anytime search (the time budget is
///     clamped to it) and sets MctsResult::deadline_hit; at least one
///     rollout batch always runs, so a valid plan comes back even when the
///     deadline is already tight on entry;
///   - evaluate: scores candidate batches instead of
///     QpSeeker::PredictPlansBatch (the serving layer's cross-query
///     batching); results must be bit-identical to the direct call;
///   - cancel: polled once per rollout and before each batched evaluation;
///     a tripped token aborts with no best-so-far plan.
StatusOr<MctsResult> MctsPlan(const QpSeeker& model, const query::Query& q,
                              const MctsOptions& search = {},
                              const PlanRequestOptions& request = {});

/// Greedy baseline for the MCTS ablation: at each step append the relation/
/// operator pair whose completed-by-greedy plan the model scores best.
/// Reads request.evaluate and request.cancel as MctsPlan does (cancel is
/// polled once per planning step); the greedy search has no seed and no
/// anytime budget.
StatusOr<MctsResult> GreedyPlan(const QpSeeker& model, const query::Query& q,
                                const PlanRequestOptions& request = {});

/// Moves a search result into `out` as the work of `stage` (kNeural or
/// kGreedy): the plan, its root estimates with the model's predicted
/// runtime, plans_evaluated, plan_ms and deadline_hit. Leaves
/// fallback_reason as it is.
void FillPlanResult(MctsResult search, PlanStage stage, PlanResult* out);

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_MCTS_H_
