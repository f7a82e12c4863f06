// Copyright 2026 The QPSeeker Authors

#include "core/mcts.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

using query::OpType;
using query::PlanNode;
using query::PlanPtr;
using query::Query;

namespace {

/// One planning step: append `rel` scanned with `scan`; joined in via `join`
/// (ignored for the first step).
struct Action {
  int rel = -1;
  OpType scan = OpType::kSeqScan;
  OpType join = OpType::kHashJoin;
};

struct TreeNode {
  Action action;
  TreeNode* parent = nullptr;
  std::vector<std::unique_ptr<TreeNode>> children;
  bool expanded = false;
  int visits = 0;
  double reward = 0.0;
};

/// Builds the left-deep plan for an action sequence; nullptr on cross join.
PlanPtr PlanFromActions(const Query& q, const std::vector<Action>& actions) {
  std::vector<int> order;
  std::vector<OpType> scans, joins;
  for (size_t i = 0; i < actions.size(); ++i) {
    order.push_back(actions[i].rel);
    scans.push_back(actions[i].scan);
    if (i > 0) joins.push_back(actions[i].join);
  }
  return BuildLeftDeepPlan(q, order, scans, joins);
}

/// Relations joinable to the current prefix (all relations when empty).
std::vector<int> CandidateRelations(const Query& q, uint64_t used_mask) {
  std::vector<int> out;
  const int n = q.num_relations();
  if (used_mask == 0) {
    for (int r = 0; r < n; ++r) out.push_back(r);
    return out;
  }
  for (int r = 0; r < n; ++r) {
    if ((used_mask >> r) & 1) continue;
    for (const auto& jp : q.joins) {
      const bool connects = (jp.left_rel == r && ((used_mask >> jp.right_rel) & 1)) ||
                            (jp.right_rel == r && ((used_mask >> jp.left_rel) & 1));
      if (connects) {
        out.push_back(r);
        break;
      }
    }
  }
  return out;
}

std::vector<Action> EnumerateActions(const Query& q, uint64_t used_mask) {
  std::vector<Action> out;
  const bool first = used_mask == 0;
  for (int r : CandidateRelations(q, used_mask)) {
    for (OpType scan : query::ScanOps()) {
      if (first) {
        out.push_back(Action{r, scan, OpType::kHashJoin});
      } else {
        for (OpType join : query::JoinOps()) {
          out.push_back(Action{r, scan, join});
        }
      }
    }
  }
  return out;
}

uint64_t MaskOfPath(const std::vector<Action>& actions) {
  uint64_t mask = 0;
  for (const auto& a : actions) mask |= uint64_t{1} << a.rel;
  return mask;
}

/// Completes an action prefix uniformly at random (the rollout step).
bool RandomCompletion(const Query& q, std::vector<Action>* actions, Rng* rng) {
  uint64_t mask = MaskOfPath(*actions);
  const int n = q.num_relations();
  while (static_cast<int>(actions->size()) < n) {
    auto candidates = EnumerateActions(q, mask);
    if (candidates.empty()) return false;
    const Action a = candidates[rng->UniformInt(candidates.size())];
    actions->push_back(a);
    mask |= uint64_t{1} << a.rel;
  }
  return true;
}

/// The search's one evaluator: the request's own (the serving rendezvous)
/// when it brings one, else the model's batched forward through `memo`,
/// the search's encodings of its subtrees, query and attention context.
BatchEvalFn BindEvaluator(const QpSeeker& model, const PlanRequestOptions& request,
                          EvalMemo* memo) {
  if (request.evaluate) return request.evaluate;
  return [&model, memo](const Query& q, const std::vector<const PlanNode*>& plans) {
    return model.PredictPlansBatch(q, plans, memo);
  };
}

}  // namespace

StatusOr<MctsResult> MctsPlan(const QpSeeker& model, const Query& q,
                              const MctsOptions& search,
                              const PlanRequestOptions& request) {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  QPS_RETURN_IF_ERROR(q.Validate(model.db()));
  static metrics::Counter* const rollouts_counter =
      metrics::Registry::Global().GetCounter("qps.mcts.rollouts");
  static metrics::Histogram* const plan_ms_hist =
      metrics::Registry::Global().GetHistogram("qps.mcts.plan_ms");
  static metrics::Histogram* const batch_size_hist =
      metrics::Registry::Global().GetHistogram("qps.mcts.batch_size");
  QPS_TRACE_SPAN_VAR(span, "mcts.plan");
  Timer timer;
  Rng rng(request.seed != 0 ? request.seed : search.seed);
  MctsResult result;
  auto root = std::make_unique<TreeNode>();
  std::vector<Action> best_actions;
  double best_runtime = INFINITY;

  const int eval_batch =
      search.eval_batch > 0 ? search.eval_batch
                            : (search.threads > 1 ? 8 * search.threads : 1);

  /// One random-completed rollout awaiting evaluation. Its path already
  /// carries the visit increments (virtual loss), so later selections in
  /// the same batch spread out instead of re-walking the identical path.
  struct Candidate {
    TreeNode* leaf = nullptr;
    std::vector<Action> actions;
    PlanPtr plan;
  };

  // A request deadline truncates the anytime budget; the first batch is
  // exempt so an already-expired deadline still yields one evaluated plan.
  const double budget_ms = request.deadline_ms > 0.0
                               ? std::min(search.time_budget_ms, request.deadline_ms)
                               : search.time_budget_ms;

  EvalMemo memo;
  const BatchEvalFn evaluate = BindEvaluator(model, request, &memo);

  const int n = q.num_relations();
  while (result.plans_evaluated < search.max_rollouts &&
         (result.plans_evaluated == 0 || timer.ElapsedMillis() < budget_ms)) {
    // Gather up to eval_batch candidates; tree walking, expansion and rng
    // use happen in selection order, before the one batched evaluation.
    std::vector<Candidate> batch;
    while (static_cast<int>(batch.size()) < eval_batch &&
           result.plans_evaluated + static_cast<int>(batch.size()) <
               search.max_rollouts) {
      if (!batch.empty() && timer.ElapsedMillis() >= budget_ms) break;
      // Cancellation boundary: a deadline-expired or abandoned request
      // stops here, before this rollout's tree walk and model evaluation
      // spend CPU the caller will never read.
      QPS_RETURN_IF_ERROR(util::CheckCancel(request.cancel));
      // Fault point: a rollout may error out or stall (injected latency).
      QPS_RETURN_IF_ERROR(fault::Check("mcts.rollout"));
      QPS_TRACE_SPAN("mcts.rollout");
      rollouts_counter->Increment();

      // 1. Selection: walk down by UCT until an unexpanded or terminal node.
      TreeNode* node = root.get();
      std::vector<Action> path;
      while (node->expanded && !node->children.empty()) {
        // Unvisited children first (uniformly at random), then UCT.
        std::vector<TreeNode*> unvisited;
        for (auto& child : node->children) {
          if (child->visits == 0) unvisited.push_back(child.get());
        }
        TreeNode* chosen = nullptr;
        if (!unvisited.empty()) {
          chosen = unvisited[rng.UniformInt(unvisited.size())];
        } else {
          double best_uct = -INFINITY;
          for (auto& child : node->children) {
            const double uct =
                child->reward / static_cast<double>(child->visits) +
                search.exploration_c *
                    std::sqrt(std::log(static_cast<double>(std::max(1, node->visits))) /
                              static_cast<double>(child->visits));
            if (uct > best_uct || chosen == nullptr) {
              best_uct = uct;
              chosen = child.get();
            }
          }
        }
        node = chosen;
        path.push_back(node->action);
      }

      // 2. Expansion.
      if (!node->expanded && static_cast<int>(path.size()) < n) {
        QPS_TRACE_SPAN("mcts.expand");
        node->expanded = true;
        for (const Action& a : EnumerateActions(q, MaskOfPath(path))) {
          auto child = std::make_unique<TreeNode>();
          child->action = a;
          child->parent = node;
          node->children.push_back(std::move(child));
        }
        if (!node->children.empty()) {
          const size_t pick = rng.UniformInt(node->children.size());
          node = node->children[pick].get();
          path.push_back(node->action);
        }
      }

      // 3. Rollout: random completion.
      std::vector<Action> actions = path;
      if (!RandomCompletion(q, &actions, &rng)) {
        // Dead end (cannot happen for connected queries, but stay safe).
        node->visits += 1;
        continue;
      }
      PlanPtr plan = PlanFromActions(q, actions);
      if (plan == nullptr) {
        node->visits += 1;
        continue;
      }

      // Virtual loss: count the path's visits now, so the next selection in
      // this batch sees them. Rewards are settled after evaluation.
      for (TreeNode* cur = node; cur != nullptr; cur = cur->parent) {
        cur->visits += 1;
      }
      batch.push_back(Candidate{node, std::move(actions), std::move(plan)});
    }
    if (batch.empty()) continue;  // dead ends only; budget checks re-run above
    batch_size_hist->Record(static_cast<double>(batch.size()));
    // Second boundary before the batched encode+forward — the expensive
    // stage — so a token tripped mid-gather skips it entirely.
    QPS_RETURN_IF_ERROR(util::CheckCancel(request.cancel));

    // 4. Evaluation with the learned cost model: one batched forward for
    // the whole candidate set. A non-finite score means the model has
    // diverged; surface an error instead of garbage costs.
    std::vector<const PlanNode*> plan_ptrs;
    plan_ptrs.reserve(batch.size());
    for (const auto& c : batch) plan_ptrs.push_back(c.plan.get());
    const std::vector<query::NodeStats> preds = evaluate(q, plan_ptrs);

    // 5. Backpropagation, serially in selection order: a node earns one
    // reward unit each time it is part of the best plan discovered so far.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!query::StatsAreFinite(preds[i])) {
        return Status::Internal("non-finite model prediction in MCTS rollout");
      }
      result.plans_evaluated += 1;
      const bool improved = preds[i].runtime_ms < best_runtime;
      if (improved) {
        best_runtime = preds[i].runtime_ms;
        best_actions = batch[i].actions;
        for (TreeNode* cur = batch[i].leaf; cur != nullptr; cur = cur->parent) {
          cur->reward += 1.0;
        }
      }
    }
  }

  if (best_actions.empty()) return Status::Internal("MCTS found no plan");
  result.deadline_hit =
      request.deadline_ms > 0.0 && timer.ElapsedMillis() >= request.deadline_ms;
  result.plan = PlanFromActions(q, best_actions);
  model.AnnotateEstimates(q, result.plan.get());
  result.predicted_runtime_ms = best_runtime;
  result.planning_ms = timer.ElapsedMillis();
  plan_ms_hist->Record(result.planning_ms);
  span.AddAttr("plans_evaluated", result.plans_evaluated);
  return result;
}

StatusOr<MctsResult> GreedyPlan(const QpSeeker& model, const Query& q,
                                const PlanRequestOptions& request) {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  QPS_RETURN_IF_ERROR(q.Validate(model.db()));
  QPS_RETURN_IF_ERROR(fault::Check("greedy.plan"));
  static metrics::Counter* const plans_counter =
      metrics::Registry::Global().GetCounter("qps.greedy.plans");
  QPS_TRACE_SPAN_VAR(span, "greedy.plan");
  plans_counter->Increment();
  Timer timer;
  MctsResult result;
  EvalMemo memo;
  const BatchEvalFn evaluate = BindEvaluator(model, request, &memo);
  std::vector<Action> prefix;
  const int n = q.num_relations();
  for (int step = 0; step < n; ++step) {
    // Cancellation boundary: one check per step, before the step's
    // candidate enumeration and batched forward.
    QPS_RETURN_IF_ERROR(util::CheckCancel(request.cancel));
    // Build every step candidate first, then score them as one batched
    // forward — the greedy analogue of MCTS batched evaluation.
    std::vector<Action> step_actions;
    std::vector<PlanPtr> step_plans;
    for (const Action& a : EnumerateActions(q, MaskOfPath(prefix))) {
      std::vector<Action> candidate = prefix;
      candidate.push_back(a);
      // Deterministic cheap completion: hash joins + seq scans, first-fit.
      std::vector<Action> completed = candidate;
      uint64_t mask = MaskOfPath(completed);
      while (static_cast<int>(completed.size()) < n) {
        auto rels = CandidateRelations(q, mask);
        if (rels.empty()) break;
        completed.push_back(Action{rels[0], OpType::kSeqScan, OpType::kHashJoin});
        mask |= uint64_t{1} << rels[0];
      }
      if (static_cast<int>(completed.size()) != n) continue;
      PlanPtr plan = PlanFromActions(q, completed);
      if (plan == nullptr) continue;
      step_actions.push_back(a);
      step_plans.push_back(std::move(plan));
    }
    std::vector<const PlanNode*> ptrs;
    ptrs.reserve(step_plans.size());
    for (const auto& p : step_plans) ptrs.push_back(p.get());
    const std::vector<query::NodeStats> preds = evaluate(q, ptrs);

    Action best_action;
    double best_runtime = INFINITY;
    bool found = false;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (!query::StatsAreFinite(preds[i])) {
        return Status::Internal("non-finite model prediction in greedy planning");
      }
      result.plans_evaluated += 1;
      if (preds[i].runtime_ms < best_runtime) {
        best_runtime = preds[i].runtime_ms;
        best_action = step_actions[i];
        found = true;
      }
    }
    if (!found) return Status::Internal("greedy planner stuck");
    prefix.push_back(best_action);
  }
  result.plan = PlanFromActions(q, prefix);
  if (result.plan == nullptr) return Status::Internal("greedy produced no plan");
  model.AnnotateEstimates(q, result.plan.get());
  // The final score goes through the same evaluator as the step batches,
  // so a served request's every forward rides (and is counted by) the
  // serving layer's rendezvous.
  result.predicted_runtime_ms = evaluate(q, {result.plan.get()})[0].runtime_ms;
  result.planning_ms = timer.ElapsedMillis();
  span.AddAttr("plans_evaluated", result.plans_evaluated);
  return result;
}

void FillPlanResult(MctsResult search, PlanStage stage, PlanResult* out) {
  out->node_stats = search.plan->estimated;
  out->node_stats.runtime_ms = search.predicted_runtime_ms;
  out->plan = std::move(search.plan);
  out->stage = stage;
  out->used_neural = true;
  out->plans_evaluated = search.plans_evaluated;
  out->plan_ms = search.planning_ms;
  out->deadline_hit = search.deadline_hit;
}

}  // namespace core
}  // namespace qps
