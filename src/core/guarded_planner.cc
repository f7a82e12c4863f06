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
  MctsOptions search = options_.hybrid.mcts;
  const double deadline_ms = options_.neural_deadline_ms;
  if (deadline_ms > 0.0) {
    search.time_budget_ms = std::min(search.time_budget_ms, deadline_ms);
  }
  auto mcts = MctsPlan(*model_, q, search, ropts);
  // A search that overran the slack, say behind a stalled model
  // evaluation, fails instead of serving a late plan, so the ladder falls
  // back to the greedy rung.
  if (mcts.ok() && deadline_ms > 0.0 &&
      mcts->planning_ms > kDeadlineSlack * deadline_ms) {
    mcts = Status::DeadlineExceeded("MCTS blew the planning deadline");
  }
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
  FillPlanResult(std::move(*mcts), PlanStage::kNeural, out);
  return Status::OK();
}

Status GuardedPlanner::TryGreedy(const query::Query& q,
                                 const PlanRequestOptions& ropts,
                                 PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.greedy");
  greedy_attempts_.fetch_add(1, std::memory_order_relaxed);
  auto greedy = GreedyPlan(*model_, q, ropts);
  Status st = greedy.ok() ? Status::OK() : greedy.status();
  if (st.ok() && !std::isfinite(greedy->predicted_runtime_ms)) {
    st = Status::Internal("non-finite greedy plan score");
  }
  if (st.ok()) st = query::ValidatePlan(q, *greedy->plan);
  if (!st.ok()) {
    greedy_failures_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  FillPlanResult(std::move(*greedy), PlanStage::kGreedy, out);
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
