// Copyright 2026 The QPSeeker Authors

#include "serve/plan_service.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/health.h"
#include "core/plan_cache.h"
#include "obs/audit.h"
#include "obs/window.h"
#include "serve/sharded_service.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace serve {

/// One submitted request, from Submit until Finish resolves its promise.
struct PlanService::Request {
  PlanRequest request;  ///< deadline_ms already defaulted
  std::promise<StatusOr<core::PlanResult>> promise;
  Timer submitted;  ///< the retry budget's clock
  Timer queued;     ///< admission -> first plan start, qps.serve.queue_ms
  bool planned = false;  ///< a planning attempt has started
  double queue_ms = 0.0;
  Timer planning;   ///< since the first plan start, qps.serve.latency_ms
  int retries = 0;  ///< retries taken, from any stage
  bool probe = false;  ///< admitted as a breaker probe, not yet settled
  /// Armed for fail_on_deadline requests without a caller token, so a
  /// blown deadline aborts the search instead of running out its budget.
  std::shared_ptr<util::CancelToken> deadline_token;

  const util::CancelToken* cancel() const {
    return request.cancel != nullptr ? request.cancel.get()
                                     : deadline_token.get();
  }
};

StatusOr<std::unique_ptr<PlanService>> PlanService::Create(
    TenantSpec spec, const ShardedPlanServiceOptions& options,
    util::ThreadPool* pool, core::HealthMonitor* health, int shard) {
  std::shared_ptr<const core::QpSeeker> model = std::move(spec.deps.model);
  std::unique_ptr<PlanService> service(
      new PlanService(std::move(spec), options, pool, health, shard));
  QPS_ASSIGN_OR_RETURN(service->generation_,
                       service->BuildGeneration(std::move(model)));
  if (service->quota_.shed_to_baseline) {
    if (service->baseline_ == nullptr) {
      return Status::InvalidArgument(
          "shed_to_baseline requires a baseline planner");
    }
    QPS_ASSIGN_OR_RETURN(
        service->shed_planner_,
        core::MakePlanner("baseline", nullptr, service->baseline_));
  }
  return service;
}

StatusOr<std::shared_ptr<const PlanService::Generation>>
PlanService::BuildGeneration(std::shared_ptr<const core::QpSeeker> model) {
  auto gen = std::make_shared<Generation>();
  QPS_ASSIGN_OR_RETURN(gen->planner, core::MakePlanner(planner_name_, model.get(),
                                                       baseline_, gopts_));
  if (model != nullptr) {
    BatchRendezvousOptions ropts;
    ropts.max_batch = options_.max_batch;
    ropts.flush_timeout_ms = options_.flush_timeout_ms;
    gen->rendezvous = std::make_unique<BatchRendezvous>(
        model.get(), ropts, &batch_size_, &batch_plans_);
  }
  gen->model = std::move(model);
  return std::shared_ptr<const Generation>(std::move(gen));
}

std::shared_ptr<const PlanService::Generation> PlanService::CurrentGeneration()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return generation_;
}

PlanService::PlanService(TenantSpec spec,
                         const ShardedPlanServiceOptions& options,
                         util::ThreadPool* pool, core::HealthMonitor* health,
                         int shard)
    : tenant_id_(std::move(spec.tenant_id)),
      quota_(spec.quota),
      options_(options),
      planner_name_(std::move(spec.deps.planner_name)),
      baseline_(spec.deps.baseline),
      gopts_(spec.deps.guard_options),
      pool_(pool),
      health_(health),
      shard_key_("shard_" + std::to_string(shard)),
      submitted_("qps.serve.requests", obs::Feed::kWindowed,
                 "qps.tenant.requests", tenant_id_),
      shed_("qps.serve.shed", obs::Feed::kWindowed, "qps.tenant.shed",
            tenant_id_),
      deadline_hits_("qps.serve.deadline_misses"),
      deadline_errors_("qps.serve.deadline_misses"),
      retry_attempts_("qps.serve.retries.attempts", obs::Feed::kWindowed),
      retry_exhausted_("qps.serve.retries.exhausted"),
      retry_successes_("qps.serve.retries.success_after_retry"),
      queue_ms_("qps.serve.queue_ms", obs::Feed::kWindowed),
      latency_ms_("qps.serve.latency_ms", obs::Feed::kWindowed,
                  "qps.tenant.latency_ms", tenant_id_),
      batch_size_("qps.serve.batch_size"),
      batch_plans_("qps.serve.batch_plans"),
      inflight_gauge_(
          metrics::Registry::Global().GetGauge("qps.serve.inflight")),
      queue_depth_gauge_(
          metrics::Registry::Global().GetGauge("qps.serve.queue_depth")) {}

PlanService::~PlanService() {
  // The shard pool outlives the core; wait out every request that still
  // references it.
  Quiesce();
}

void PlanService::Quiesce() {
  std::unique_lock<std::mutex> lock(outstanding_mu_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

std::future<StatusOr<core::PlanResult>> PlanService::Submit(
    PlanRequest request) {
  QPS_TRACE_SPAN("serve.submit");
  submitted_.Increment();
  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  if (req->request.deadline_ms <= 0.0) {
    req->request.deadline_ms = options_.default_deadline_ms;
  }
  auto future = req->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(outstanding_mu_);
    outstanding_ += 1;
  }
  Admit(req);
  return future;
}

void PlanService::Admit(const RequestPtr& req) {
  fault::ScopedContext fault_ctx(tenant_id_);
  // The breaker first: a quarantined tenant's traffic reaches neither the
  // fault point nor the shard pool the quarantine protects.
  const core::AdmitDecision admit = health_->Admit(tenant_id_);
  if (admit == core::AdmitDecision::kReject) {
    if (shed_planner_ != nullptr) return Degrade(req, "quarantined");
    return Settle(req,
                  Status::Unavailable("tenant quarantined by health monitor")
                      .SetReason("quarantined"),
                  Stage::kShed);
  }
  req->probe = (admit == core::AdmitDecision::kProbe);

  if (Status injected = fault::Check("serve.submit"); !injected.ok()) {
    // Never planned, so a probe slot goes back; the fault itself is a
    // health signal.
    AbandonProbe(*req);
    health_->Record(tenant_id_, injected, /*probe=*/false);
    return Settle(req, std::move(injected), Stage::kAdmit);
  }

  // The tenant quota, then the shard pool's backstop.
  const char* shed = nullptr;
  if (pending_.fetch_add(1, std::memory_order_relaxed) >=
      static_cast<int64_t>(quota_.max_pending)) {
    shed = "shed_queue_full";
  } else {
    queue_depth_gauge_->Set(static_cast<double>(queue_depth()));
    req->queued.Reset();
    const size_t backstop =
        options_.shard_max_queue > 0 ? options_.shard_max_queue : SIZE_MAX;
    if (pool_->TrySchedule(
            [this, req] {
              pending_.fetch_sub(1, std::memory_order_relaxed);
              Plan(req);
            },
            backstop)) {
      return;
    }
    shed = "shed_pool_backstop";
  }
  pending_.fetch_sub(1, std::memory_order_relaxed);
  AbandonProbe(*req);
  if (shed_planner_ != nullptr) return Degrade(req, shed);
  Settle(req,
         Status::ResourceExhausted("plan service admission queue full")
             .SetReason(shed),
         Stage::kShed);
}

void PlanService::Plan(const RequestPtr& req) {
  fault::ScopedContext fault_ctx(tenant_id_);
  if (!req->planned) {
    req->planned = true;
    req->queue_ms = req->queued.ElapsedMillis();
    queue_ms_.Record(req->queue_ms);
    req->planning.Reset();
    if (req->request.cancel == nullptr && req->request.fail_on_deadline &&
        req->request.deadline_ms > 0.0) {
      req->deadline_token = std::make_shared<util::CancelToken>();
      req->deadline_token->ArmDeadline(req->request.deadline_ms);
    }
  }
  const int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_gauge_->Set(static_cast<double>(inflight));
  queue_depth_gauge_->Set(static_cast<double>(queue_depth()));

  StatusOr<core::PlanResult> result = [&]() -> StatusOr<core::PlanResult> {
    QPS_TRACE_SPAN_VAR(span, "serve.plan");
    // The snapshot keeps planner, rendezvous and model alive for the whole
    // attempt, even if a swap publishes a new generation meanwhile.
    const std::shared_ptr<const Generation> gen = CurrentGeneration();
    // One memo per attempt, declared before the hook that points at it:
    // every evaluation of this attempt reuses what the earlier ones
    // encoded, and a retry starts afresh.
    core::EvalMemo memo;
    core::PlanRequestOptions ropts;
    // A retry plans under what is left of the deadline, on the clock
    // FitsBudget gates the backoff with (time since Submit), floored at the
    // 1 ms FitsBudget reserves so it never reads as "no deadline".
    ropts.deadline_ms = req->request.deadline_ms;
    if (req->retries > 0 && ropts.deadline_ms > 0.0) {
      ropts.deadline_ms =
          std::max(1.0, ropts.deadline_ms - req->submitted.ElapsedMillis());
    }
    ropts.fail_on_deadline = req->request.fail_on_deadline;
    ropts.seed = req->request.seed;
    ropts.tenant_id = tenant_id_;
    ropts.cancel = req->cancel();
    if (BatchRendezvous* rdv = gen->rendezvous.get(); rdv != nullptr) {
      rdv->SetExpected(inflight);
      ropts.evaluate = [rdv, &memo](const query::Query& q,
                                    const std::vector<const query::PlanNode*>& plans) {
        return rdv->Evaluate(q, plans, &memo);
      };
    }
    auto planned = gen->planner->Plan(req->request.query, ropts);
    span.AddAttr("ok", planned.ok() ? 1 : 0);
    return planned;
  }();

  const int remaining = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  inflight_gauge_->Set(static_cast<double>(remaining));
  if (auto gen = CurrentGeneration(); gen->rendezvous != nullptr) {
    gen->rendezvous->SetExpected(std::max(remaining, 1));
  }
  Settle(req, std::move(result), Stage::kPlan);
}

void PlanService::Settle(const RequestPtr& req,
                         StatusOr<core::PlanResult> result, Stage stage) {
  // Retry: a transient failure whose backoff fits the request deadline
  // re-enters the stage that failed from the pool's delayed queue. The
  // backoff is a pure function of (seed, attempt), so a fixed seed replays
  // the same schedule, and the same plan.
  const RetryPolicy& retry = options_.retry;
  if (!result.ok() && !util::Cancelled(req->cancel())) {
    const Status& failure = result.status();
    const int attempt = req->retries + 1;
    if (retry.ShouldRetry(failure, attempt)) {
      const double backoff_ms = retry.BackoffMs(attempt, req->request.seed);
      if (RetryPolicy::FitsBudget(backoff_ms, req->submitted.ElapsedMillis(),
                                  req->request.deadline_ms)) {
        if (stage == Stage::kPlan) {
          RecordPlanOutcome(*req, failure, /*final_attempt=*/false);
        }
        retry_attempts_.Increment();
        req->retries = attempt;
        pool_->ScheduleAfter(backoff_ms, [this, req, stage] {
          if (stage == Stage::kPlan) {
            Plan(req);
          } else {
            Admit(req);
          }
        });
        return;
      }
      retry_exhausted_.Increment();  // out of deadline budget
    } else if (retry.enabled() && failure.IsRetryable()) {
      retry_exhausted_.Increment();  // out of attempts
    }
  }
  if (stage == Stage::kPlan) {
    RecordPlanOutcome(*req, result.status(), /*final_attempt=*/true);
  }
  const std::string shed_reason =
      stage == Stage::kShed ? result.status().reason() : std::string();
  Finish(*req, std::move(result), shed_reason);
}

void PlanService::Degrade(const RequestPtr& req, const char* reason) {
  auto result = shed_planner_->Plan(req->request.query, core::PlanRequestOptions{});
  if (result.ok()) result->fallback_reason = std::string("shed: ") + reason;
  Finish(*req, std::move(result), reason);
}

void PlanService::RecordPlanOutcome(Request& req, const Status& outcome,
                                    bool final_attempt) {
  // Cancellation is caller-driven, not model health: a cancelled outcome
  // neither trips nor recovers the breaker, but a probe gives its slot
  // back.
  if (outcome.reason() == "cancelled") {
    if (final_attempt) AbandonProbe(req);
    return;
  }
  health_->RecordObserved(shard_key_, outcome);
  // Intermediate (retried) attempts count as plain samples; only the final
  // outcome settles a probe admission.
  health_->Record(tenant_id_, outcome, final_attempt && req.probe);
}

void PlanService::AbandonProbe(Request& req) {
  if (!req.probe) return;
  req.probe = false;
  health_->AbandonProbe(tenant_id_);
}

void PlanService::Finish(Request& req, StatusOr<core::PlanResult> result,
                         const std::string& shed_reason) {
  const bool shed = !shed_reason.empty();
  if (req.planned) latency_ms_.Record(req.planning.ElapsedMillis());
  if (options_.audit != nullptr) {
    obs::AuditRecord record;
    record.query_hash = core::QueryFingerprint(req.request.query);
    record.backend = planner_name_;
    record.tenant = tenant_id_;
    record.outcome = shed ? (result.ok() ? "shed_degraded" : "shed")
                          : (result.ok() ? "ok" : "error");
    record.reason = shed ? shed_reason : result.status().reason();
    if (req.planned) {
      record.queue_ms = req.queue_ms;
      record.plan_ms = req.planning.ElapsedMillis();
    }
    if (result.ok()) {
      record.stage = core::PlanStageName(result->stage);
      if (shed) record.plan_ms = result->plan_ms;
      record.deadline_hit = result->deadline_hit;
      record.plans_evaluated = result->plans_evaluated;
      record.fallback_reason = result->fallback_reason;
    } else if (!shed) {
      record.fallback_reason = result.status().ToString();
    }
    options_.audit->Append(record);
  }
  if (shed) {
    if (result.ok()) shed_degraded_.fetch_add(1, std::memory_order_release);
    shed_.Increment();
  } else if (result.ok()) {
    if (result->deadline_hit) deadline_hits_.Increment();
    completed_.fetch_add(1, std::memory_order_release);
  } else {
    if (result.status().IsDeadlineExceeded()) deadline_errors_.Increment();
    errors_.fetch_add(1, std::memory_order_release);
  }
  if (result.ok() && req.retries > 0) retry_successes_.Increment();
  req.promise.set_value(std::move(result));
  // Last touch of the core: once outstanding_ reaches zero, Quiesce may
  // return and the core may be destroyed.
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  if (--outstanding_ == 0) outstanding_cv_.notify_all();
}

PlanService::Stats PlanService::stats() const {
  // Outcomes first, admissions last: every outcome read here was released
  // after its request's submitted_ add, so submitted covers it.
  Stats out;
  out.batching = BatchRendezvous::Stats::Of(batch_size_, batch_plans_);
  out.retry_successes = retry_successes_.value();
  out.retry_exhausted = retry_exhausted_.value();
  out.retry_attempts = retry_attempts_.value();
  out.deadline_hits = deadline_hits_.value();
  out.completed = completed_.load(std::memory_order_acquire);
  out.errors = errors_.load(std::memory_order_acquire);
  out.shed_degraded = shed_degraded_.load(std::memory_order_acquire);
  out.shed = shed_.value();
  out.submitted = submitted_.value();
  return out;
}

Status PlanService::SwapModel(std::shared_ptr<const core::QpSeeker> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("SwapModel requires a model");
  }
  // Build everything fallible before touching live state: a construction
  // failure leaves the old model serving untouched.
  QPS_ASSIGN_OR_RETURN(auto gen, BuildGeneration(std::move(model)));
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    generation_.swap(gen);
  }
  // `gen` now holds the retired generation; its last in-flight reader (or
  // this scope) releases it outside the lock.
  return Status::OK();
}

core::GuardStats PlanService::guard_stats() const {
  return CurrentGeneration()->planner->guard_stats();
}

}  // namespace serve
}  // namespace qps
