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

#include <memory>

#include "core/planner_api.h"
#include "core/qpseeker.h"

namespace qps {
namespace core {

struct MctsOptions {
  double time_budget_ms = 200.0;  ///< paper: 200ms planning cut-off
  int max_rollouts = 100000;      ///< secondary cap (deterministic tests)
  double exploration_c = 0.5;     ///< paper: C = 0.5 after sweeping {0.25,0.5,0.75}
  uint64_t seed = 99;
  /// Hard planning deadline (0 = disabled). The time budget is a soft
  /// target the anytime loop aims for; if a stalled model evaluation (or an
  /// injected latency fault) pushes total planning time past this deadline,
  /// MctsPlan returns DeadlineExceeded instead of a late plan, so the
  /// guarded pipeline can fall back. Set it with slack above the budget.
  double hard_deadline_ms = 0.0;

  /// Per-request planning deadline in ms from MctsPlan entry (0 = none).
  /// Unlike hard_deadline_ms (a failure for stall detection), the deadline
  /// truncates the anytime search: the time budget is clamped to it and
  /// the best plan found so far is returned with MctsResult::deadline_hit
  /// set. At least one rollout batch always runs, so a valid plan comes
  /// back even when the deadline is already tight on entry.
  double deadline_ms = 0.0;

  /// External evaluator for candidate batches. The serving layer injects
  /// one to coalesce evaluations from different in-flight queries into
  /// shared batched forwards; null calls QpSeeker::PredictPlansBatch, the
  /// one-request form of the same PredictPlansMulti path. Results must be
  /// bit-identical to the direct call, so planning stays deterministic
  /// under cross-query batching.
  BatchEvalFn evaluate;

  /// Leaf-parallel rollouts. Each iteration selects, expands, and
  /// random-completes up to `eval_batch` candidate plans *serially* with
  /// one seeded rng (visits along each chosen path count immediately, a
  /// virtual loss that steers later candidates of the same batch away),
  /// evaluates them as ONE batched model forward — with per-plan annotation
  /// sharded across `threads` workers — and backpropagates rewards
  /// serially. Because every rng draw and tree update is serial and the
  /// evaluation is a pure function, results are bit-identical for a fixed
  /// (seed, eval_batch) at any thread count.
  ///
  /// threads: worker parallelism for the evaluation stage; <= 1 disables
  /// the pool. eval_batch: candidates per batched forward; 0 = auto (1 when
  /// threads <= 1, else 8 * threads — batching is what amortizes GEMM
  /// weight traffic, so it scales with requested parallelism).
  int threads = 1;
  int eval_batch = 0;
  /// Optional externally owned pool (e.g. qpsql's --threads pool). When
  /// null and threads > 1, MctsPlan spins up a temporary pool.
  util::ThreadPool* pool = nullptr;

  /// Cooperative cancellation, polled once per rollout and before each
  /// batched evaluation (util/cancel.h). A tripped token aborts the search
  /// immediately — no best-so-far plan comes back, because the caller has
  /// abandoned the request. Null = never cancelled; non-owning.
  const util::CancelToken* cancel = nullptr;
};

struct MctsResult {
  query::PlanPtr plan;             ///< best plan found (estimates annotated)
  double predicted_runtime_ms = 0.0;
  int plans_evaluated = 0;         ///< paper §7.2 reports these counts
  double planning_ms = 0.0;
  bool deadline_hit = false;       ///< search truncated by MctsOptions::deadline_ms
};

/// Plans `q` with MCTS guided by a trained QPSeeker model.
StatusOr<MctsResult> MctsPlan(const QpSeeker& model, const query::Query& q,
                              const MctsOptions& opts = {});

/// Greedy baseline for the MCTS ablation: at each step append the relation/
/// operator pair whose completed-by-greedy plan the model scores best.
/// `evaluate` substitutes for the direct model call exactly as in
/// MctsOptions::evaluate (the guarded ladder threads the serving hook
/// through so its greedy rung also joins cross-query batches); `cancel` is
/// polled once per planning step, as in MctsOptions::cancel.
StatusOr<MctsResult> GreedyPlan(const QpSeeker& model, const query::Query& q,
                                const BatchEvalFn& evaluate = nullptr,
                                const util::CancelToken* cancel = nullptr);

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_MCTS_H_
