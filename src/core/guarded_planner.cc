// Copyright 2026 The QPSeeker Authors

#include "core/guarded_planner.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

namespace {

/// A blown neural deadline counts as a failure once planning overruns
/// this multiple of GuardedOptions::neural_deadline_ms.
constexpr double kDeadlineSlack = 4.0;

/// Breaker key of one tenant's ladder, so tenants sharing a process never
/// share a qps.health.* series.
std::string LadderKey(const std::string& tenant_id) {
  return tenant_id.empty() ? "neural" : "neural_" + tenant_id;
}

}  // namespace

GuardedPlanner::GuardedPlanner(const QpSeeker* model,
                               const optimizer::Planner* baseline,
                               GuardedOptions options)
    : model_(model),
      baseline_(baseline),
      options_(std::move(options)),
      requests_("qps.guarded.requests"),
      served_{obs::OwnedCounter("qps.guarded.served_neural",
                                obs::Feed::kWindowed),
              obs::OwnedCounter("qps.guarded.served_greedy",
                                obs::Feed::kWindowed),
              obs::OwnedCounter("qps.guarded.served_traditional",
                                obs::Feed::kWindowed)},
      fallbacks_("qps.guarded.fallbacks"),
      circuit_short_circuits_("qps.guarded.circuit_short_circuits"),
      plan_ms_("qps.guarded.plan_ms", obs::Feed::kWindowed) {
  HealthOptions hopts;
  hopts.clock = options_.clock;
  breaker_ = std::make_unique<HealthMonitor>(hopts);
}

GuardStats GuardedPlanner::guard_stats() const {
  const auto load = [](const std::atomic<int64_t>& n) {
    return n.load(std::memory_order_relaxed);
  };
  GuardStats out;
  out.requests = requests_.value();
  out.neural_attempts = load(neural_attempts_);
  out.neural_success = served_[static_cast<int>(PlanStage::kNeural)].value();
  out.neural_invalid_plan = load(neural_invalid_plan_);
  out.neural_nan = load(neural_nan_);
  out.neural_deadline = load(neural_deadline_);
  out.neural_error = load(neural_error_);
  out.greedy_attempts = load(greedy_attempts_);
  out.greedy_success = served_[static_cast<int>(PlanStage::kGreedy)].value();
  out.greedy_failures = load(greedy_failures_);
  out.traditional_attempts = load(traditional_attempts_);
  out.traditional_success =
      served_[static_cast<int>(PlanStage::kTraditional)].value();
  out.traditional_failures = load(traditional_failures_);
  out.circuit_short_circuits = circuit_short_circuits_.value();
  for (const auto& [key, s] : breaker_->AllStats()) {
    out.circuit_opens += s.quarantines;
    out.circuit_closes += s.recoveries;
  }
  return out;
}

HealthState GuardedPlanner::circuit_state(const std::string& tenant_id) const {
  return breaker_->state(LadderKey(tenant_id));
}

Status GuardedPlanner::TryNeural(const query::Query& q,
                                 const PlanRequestOptions& ropts,
                                 PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.neural");
  neural_attempts_.fetch_add(1, std::memory_order_relaxed);
  MctsOptions mopts = options_.hybrid.mcts;
  if (options_.neural_deadline_ms > 0.0) {
    mopts.time_budget_ms = std::min(mopts.time_budget_ms, options_.neural_deadline_ms);
    mopts.hard_deadline_ms = options_.neural_deadline_ms * kDeadlineSlack;
  }
  mopts.deadline_ms = ropts.deadline_ms;
  if (ropts.seed != 0) mopts.seed = ropts.seed;
  if (ropts.evaluate) mopts.evaluate = ropts.evaluate;
  mopts.cancel = ropts.cancel;
  auto mcts = MctsPlan(*model_, q, mopts);
  if (!mcts.ok()) {
    const Status& st = mcts.status();
    if (st.IsDeadlineExceeded()) {
      neural_deadline_.fetch_add(1, std::memory_order_relaxed);
    } else if (st.message().find("non-finite") != std::string::npos) {
      neural_nan_.fetch_add(1, std::memory_order_relaxed);
    } else {
      neural_error_.fetch_add(1, std::memory_order_relaxed);
    }
    return st;
  }
  if (!std::isfinite(mcts->predicted_runtime_ms)) {
    neural_nan_.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("non-finite MCTS plan score");
  }
  Status valid = query::ValidatePlan(q, *mcts->plan);
  if (!valid.ok()) {
    neural_invalid_plan_.fetch_add(1, std::memory_order_relaxed);
    return valid;
  }
  out->node_stats = mcts->plan->estimated;
  out->node_stats.runtime_ms = mcts->predicted_runtime_ms;
  out->plan = std::move(mcts->plan);
  out->stage = PlanStage::kNeural;
  out->used_neural = true;
  out->plans_evaluated = mcts->plans_evaluated;
  out->deadline_hit = mcts->deadline_hit;
  return Status::OK();
}

Status GuardedPlanner::TryGreedy(const query::Query& q,
                                 const PlanRequestOptions& ropts,
                                 PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.greedy");
  greedy_attempts_.fetch_add(1, std::memory_order_relaxed);
  auto greedy = GreedyPlan(*model_, q, ropts.evaluate, ropts.cancel);
  Status st = greedy.ok() ? Status::OK() : greedy.status();
  if (st.ok() && !std::isfinite(greedy->predicted_runtime_ms)) {
    st = Status::Internal("non-finite greedy plan score");
  }
  if (st.ok()) st = query::ValidatePlan(q, *greedy->plan);
  if (!st.ok()) {
    greedy_failures_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  out->node_stats = greedy->plan->estimated;
  out->node_stats.runtime_ms = greedy->predicted_runtime_ms;
  out->plan = std::move(greedy->plan);
  out->stage = PlanStage::kGreedy;
  out->used_neural = true;
  out->plans_evaluated = greedy->plans_evaluated;
  return Status::OK();
}

Status GuardedPlanner::TryTraditional(const query::Query& q,
                                      const PlanRequestOptions& ropts,
                                      PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.traditional");
  traditional_attempts_.fetch_add(1, std::memory_order_relaxed);
  auto plan = baseline_->Plan(q, {}, ropts.cancel);
  Status st = plan.ok() ? Status::OK() : plan.status();
  if (st.ok()) st = query::ValidatePlan(q, **plan);
  if (!st.ok()) {
    traditional_failures_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  out->node_stats = (*plan)->estimated;
  out->plan = std::move(*plan);
  out->stage = PlanStage::kTraditional;
  out->used_neural = false;
  out->plans_evaluated = 0;
  return Status::OK();
}

StatusOr<PlanResult> GuardedPlanner::Plan(const query::Query& q,
                                          const PlanRequestOptions& ropts) const {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  // An already-cancelled request never enters the ladder (and never counts
  // against the breaker — cancellation is caller-driven, not model health).
  QPS_RETURN_IF_ERROR(util::CheckCancel(ropts.cancel));
  QPS_TRACE_SPAN_VAR(span, "guarded.plan");
  requests_.Increment();
  Timer timer(&clock());
  PlanResult result;

  auto serve = [&]() -> StatusOr<PlanResult> {
    result.plan_ms = timer.ElapsedMillis();
    served_[static_cast<int>(result.stage)].Increment();
    if (!result.fallback_reason.empty()) fallbacks_.Increment();
    plan_ms_.Record(result.plan_ms);
    span.AddAttr("stage", PlanStageName(result.stage));
    if (!result.fallback_reason.empty()) {
      span.AddAttr("fallback", result.fallback_reason);
    }
    if (result.deadline_hit && ropts.fail_on_deadline) {
      return Status::DeadlineExceeded("planning deadline expired");
    }
    return std::move(result);
  };

  const bool neural_eligible =
      model_ != nullptr &&
      q.num_relations() >= options_.hybrid.neural_min_relations;

  if (neural_eligible) {
    HealthMonitor& breaker = *breaker_;
    const std::string key = LadderKey(ropts.tenant_id);
    const AdmitDecision admit = breaker.Admit(key);
    if (admit == AdmitDecision::kReject) {
      circuit_short_circuits_.Increment();
      result.fallback_reason = "circuit open";
    } else {
      const bool probe = admit == AdmitDecision::kProbe;
      Status neural = TryNeural(q, ropts, &result);
      // A rung tripped by the cancel token ends the ladder: degrading a
      // request nobody is waiting for just burns more CPU. The tripped
      // outcome also stays out of the breaker — it says nothing about
      // model health.
      if (!neural.ok() && util::Cancelled(ropts.cancel)) {
        if (probe) breaker.AbandonProbe(key);
        return neural;
      }
      breaker.Record(key, neural, probe);
      if (neural.ok()) return serve();
      result.fallback_reason = "neural: " + neural.ToString();
      QPS_VLOG(1) << "guarded: neural rung failed (" << neural.ToString()
                  << "), degrading to greedy";
      Status greedy = TryGreedy(q, ropts, &result);
      if (!greedy.ok() && util::Cancelled(ropts.cancel)) return greedy;
      if (greedy.ok()) return serve();
      result.fallback_reason += "; greedy: " + greedy.ToString();
      QPS_VLOG(1) << "guarded: greedy rung failed (" << greedy.ToString()
                  << "), degrading to traditional";
    }
  }

  Status traditional = TryTraditional(q, ropts, &result);
  if (!traditional.ok()) return traditional;
  return serve();
}

}  // namespace core
}  // namespace qps
