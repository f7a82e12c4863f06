// Copyright 2026 The QPSeeker Authors

#include "core/guarded_planner.h"

#include <algorithm>
#include <cmath>

#include "obs/window.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

namespace {

/// Pre-resolved hot-path metrics (DESIGN.md §8 naming convention).
struct GuardMetrics {
  metrics::Counter* requests;
  metrics::Counter* served[3];  ///< indexed by PlanStage
  metrics::Counter* fallbacks;
  metrics::Counter* circuit_short_circuits;
  metrics::Histogram* plan_ms;
  /// Windowed ladder mix: which rung served recent traffic. Feeds the
  /// "ladder" panel in qps_top and the Prometheus _window_rate series.
  obs::WindowedCounter* stage_window[3];
  obs::WindowedHistogram* plan_ms_window;

  static const GuardMetrics& Get() {
    static const GuardMetrics m = [] {
      auto& reg = metrics::Registry::Global();
      auto& win = obs::WindowRegistry::Global();
      GuardMetrics out;
      out.requests = reg.GetCounter("qps.guarded.requests");
      out.served[0] = reg.GetCounter("qps.guarded.served_neural");
      out.served[1] = reg.GetCounter("qps.guarded.served_greedy");
      out.served[2] = reg.GetCounter("qps.guarded.served_traditional");
      out.fallbacks = reg.GetCounter("qps.guarded.fallbacks");
      out.circuit_short_circuits =
          reg.GetCounter("qps.guarded.circuit_short_circuits");
      out.plan_ms = reg.GetHistogram("qps.guarded.plan_ms");
      out.stage_window[0] = win.GetCounter("qps.guarded.stage.neural");
      out.stage_window[1] = win.GetCounter("qps.guarded.stage.greedy");
      out.stage_window[2] = win.GetCounter("qps.guarded.stage.traditional");
      out.plan_ms_window = win.GetHistogram("qps.guarded.plan_ms");
      return out;
    }();
    return m;
  }
};

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
    : model_(model), baseline_(baseline), options_(std::move(options)) {
  HealthOptions hopts;
  hopts.clock = options_.clock;
  breaker_ = std::make_unique<HealthMonitor>(hopts);
}

GuardStats GuardedPlanner::guard_stats() const {
  GuardStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
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
                                 GuardStats* stats, PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.neural");
  stats->neural_attempts += 1;
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
      stats->neural_deadline += 1;
    } else if (st.message().find("non-finite") != std::string::npos) {
      stats->neural_nan += 1;
    } else {
      stats->neural_error += 1;
    }
    return st;
  }
  if (!std::isfinite(mcts->predicted_runtime_ms)) {
    stats->neural_nan += 1;
    return Status::Internal("non-finite MCTS plan score");
  }
  Status valid = query::ValidatePlan(q, *mcts->plan);
  if (!valid.ok()) {
    stats->neural_invalid_plan += 1;
    return valid;
  }
  stats->neural_success += 1;
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
                                 GuardStats* stats, PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.greedy");
  stats->greedy_attempts += 1;
  auto greedy = GreedyPlan(*model_, q, ropts.evaluate, ropts.cancel);
  Status st = greedy.ok() ? Status::OK() : greedy.status();
  if (st.ok() && !std::isfinite(greedy->predicted_runtime_ms)) {
    st = Status::Internal("non-finite greedy plan score");
  }
  if (st.ok()) st = query::ValidatePlan(q, *greedy->plan);
  if (!st.ok()) {
    stats->greedy_failures += 1;
    return st;
  }
  stats->greedy_success += 1;
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
                                      GuardStats* stats,
                                      PlanResult* out) const {
  QPS_TRACE_SPAN("guarded.traditional");
  stats->traditional_attempts += 1;
  auto plan = baseline_->Plan(q, {}, ropts.cancel);
  Status st = plan.ok() ? Status::OK() : plan.status();
  if (st.ok()) st = query::ValidatePlan(q, **plan);
  if (!st.ok()) {
    stats->traditional_failures += 1;
    return st;
  }
  stats->traditional_success += 1;
  out->node_stats = (*plan)->estimated;
  out->plan = std::move(*plan);
  out->stage = PlanStage::kTraditional;
  out->used_neural = false;
  out->plans_evaluated = 0;
  return Status::OK();
}

StatusOr<PlanResult> GuardedPlanner::Plan(const query::Query& q,
                                          const PlanRequestOptions& ropts) const {
  GuardStats request_stats;
  StatusOr<PlanResult> result = RunLadder(q, ropts, &request_stats);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ += request_stats;
  return result;
}

StatusOr<PlanResult> GuardedPlanner::RunLadder(const query::Query& q,
                                               const PlanRequestOptions& ropts,
                                               GuardStats* stats) const {
  QPS_RETURN_IF_ERROR(CheckPlannable(q));
  // An already-cancelled request never enters the ladder (and never counts
  // against the breaker — cancellation is caller-driven, not model health).
  QPS_RETURN_IF_ERROR(util::CheckCancel(ropts.cancel));
  const GuardMetrics& gm = GuardMetrics::Get();
  QPS_TRACE_SPAN_VAR(span, "guarded.plan");
  stats->requests += 1;
  gm.requests->Increment();
  Timer timer(&clock());
  PlanResult result;

  auto serve = [&]() -> StatusOr<PlanResult> {
    result.plan_ms = timer.ElapsedMillis();
    gm.served[static_cast<int>(result.stage)]->Increment();
    gm.stage_window[static_cast<int>(result.stage)]->Increment();
    if (!result.fallback_reason.empty()) gm.fallbacks->Increment();
    gm.plan_ms->Record(result.plan_ms);
    gm.plan_ms_window->Record(result.plan_ms);
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
      stats->circuit_short_circuits += 1;
      gm.circuit_short_circuits->Increment();
      result.fallback_reason = "circuit open";
    } else {
      const bool probe = admit == AdmitDecision::kProbe;
      Status neural = TryNeural(q, ropts, stats, &result);
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
      Status greedy = TryGreedy(q, ropts, stats, &result);
      if (!greedy.ok() && util::Cancelled(ropts.cancel)) return greedy;
      if (greedy.ok()) return serve();
      result.fallback_reason += "; greedy: " + greedy.ToString();
      QPS_VLOG(1) << "guarded: greedy rung failed (" << greedy.ToString()
                  << "), degrading to traditional";
    }
  }

  Status traditional = TryTraditional(q, ropts, stats, &result);
  if (!traditional.ok()) return traditional;
  return serve();
}

}  // namespace core
}  // namespace qps
