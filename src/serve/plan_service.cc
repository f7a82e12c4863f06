// Copyright 2026 The QPSeeker Authors

#include "serve/plan_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "core/plan_cache.h"
#include "obs/audit.h"
#include "obs/window.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace serve {

namespace {

/// Blocking backoff between retry attempts. Millisecond-scale sleeps on a
/// worker (or submitting) thread; the deadline budget has already been
/// checked by the caller.
void SleepForBackoff(double backoff_ms) {
  if (backoff_ms <= 0.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(backoff_ms));
}

}  // namespace

/// One admitted request: the PlanRequest lives here until a worker picks
/// the task up, and the promise carries the result back.
struct PlanService::Request {
  PlanRequest request;
  std::promise<StatusOr<core::PlanResult>> promise;
  Timer queued;  ///< admission -> task start, for qps.serve.queue_ms
};

StatusOr<std::unique_ptr<PlanService>> PlanService::Create(
    PlanServiceDeps deps, PlanServiceOptions options) {
  std::shared_ptr<const core::QpSeeker> model = std::move(deps.model);
  std::unique_ptr<PlanService> service(
      new PlanService(std::move(deps), std::move(options)));
  QPS_ASSIGN_OR_RETURN(service->generation_,
                       service->BuildGeneration(std::move(model)));
  if (service->options_.shed_to_baseline) {
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

PlanService::PlanService(PlanServiceDeps deps, PlanServiceOptions options)
    : options_(std::move(options)),
      planner_name_(std::move(deps.planner_name)),
      baseline_(deps.baseline),
      gopts_(deps.guard_options),
      submitted_("qps.serve.requests", obs::Feed::kWindowed,
                 "qps.tenant.requests", options_.tenant_id),
      shed_("qps.serve.shed", obs::Feed::kWindowed, "qps.tenant.shed",
            options_.tenant_id),
      deadline_hits_("qps.serve.deadline_misses"),
      deadline_errors_("qps.serve.deadline_misses"),
      retry_attempts_("qps.serve.retries.attempts", obs::Feed::kWindowed),
      retry_exhausted_("qps.serve.retries.exhausted"),
      retry_successes_("qps.serve.retries.success_after_retry"),
      queue_ms_("qps.serve.queue_ms", obs::Feed::kWindowed),
      latency_ms_("qps.serve.latency_ms", obs::Feed::kWindowed,
                  "qps.tenant.latency_ms", options_.tenant_id),
      batch_size_("qps.serve.batch_size"),
      batch_plans_("qps.serve.batch_plans"),
      inflight_gauge_(
          metrics::Registry::Global().GetGauge("qps.serve.inflight")),
      queue_depth_gauge_(
          metrics::Registry::Global().GetGauge("qps.serve.queue_depth")) {
  if (options_.pool == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  }
}

PlanService::~PlanService() {
  // On a shared pool the service cannot drain by destroying it; wait out
  // every task that still references this object.
  if (options_.pool != nullptr) Quiesce();
}

void PlanService::TaskStarted() {
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  outstanding_ += 1;
}

void PlanService::TaskFinished() {
  std::lock_guard<std::mutex> lock(outstanding_mu_);
  outstanding_ -= 1;
  if (outstanding_ == 0) outstanding_cv_.notify_all();
}

void PlanService::Quiesce() {
  std::unique_lock<std::mutex> lock(outstanding_mu_);
  outstanding_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

StatusOr<core::PlanResult> PlanService::PlanShedded(const query::Query& q,
                                                    const char* reason) {
  auto result = shed_planner_->Plan(q, core::PlanRequestOptions{});
  if (result.ok()) result->fallback_reason = std::string("shed: ") + reason;
  return result;
}

void PlanService::ShedRequest(Request& req, const char* reason) {
  if (shed_planner_ != nullptr) {
    shed_degraded_.fetch_add(1, std::memory_order_release);
  }
  shed_.Increment();
  obs::AuditRecord record;
  record.query_hash = core::QueryFingerprint(req.request.query);
  record.backend = planner_name_;
  record.tenant = req.request.tenant_id.empty() ? options_.tenant_id
                                                : req.request.tenant_id;
  record.reason = reason;
  if (shed_planner_ != nullptr) {
    StatusOr<core::PlanResult> degraded =
        PlanShedded(req.request.query, reason);
    if (options_.audit != nullptr) {
      record.outcome = "shed_degraded";
      if (degraded.ok()) {
        record.stage = core::PlanStageName(degraded->stage);
        record.plan_ms = degraded->plan_ms;
        record.plans_evaluated = degraded->plans_evaluated;
        record.fallback_reason = degraded->fallback_reason;
      }
      options_.audit->Append(record);
    }
    req.promise.set_value(std::move(degraded));
  } else {
    if (options_.audit != nullptr) {
      record.outcome = "shed";
      options_.audit->Append(record);
    }
    // Quarantine rejections are kUnavailable (retryable once the breaker
    // half-opens); load sheds stay kResourceExhausted. Either way the
    // machine-readable cause rides Status::reason(), not the message.
    Status rejected =
        std::strcmp(reason, "quarantined") == 0
            ? Status::Unavailable("tenant quarantined by health monitor")
            : Status::ResourceExhausted("plan service admission queue full");
    req.promise.set_value(std::move(rejected).SetReason(reason));
  }
}

std::future<StatusOr<core::PlanResult>> PlanService::SubmitDegraded(
    PlanRequest request, const char* reason) {
  submitted_.Increment();
  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  auto future = req->promise.get_future();
  ShedRequest(*req, reason);
  return future;
}

std::future<StatusOr<core::PlanResult>> PlanService::Submit(
    PlanRequest request) {
  QPS_TRACE_SPAN("serve.submit");
  submitted_.Increment();

  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  auto future = req->promise.get_future();

  // Chaos hook on the submitting thread, before admission: an armed
  // serve.submit spec fails the request synchronously (the future is ready
  // on return), which is exactly the shape the caller-side retry loop in
  // ShardedPlanService handles. Scoped to the tenant so only_context specs
  // can target one tenant's submissions.
  {
    fault::ScopedContext fault_ctx(req->request.tenant_id.empty()
                                       ? options_.tenant_id
                                       : req->request.tenant_id);
    Status injected = fault::Check("serve.submit");
    if (!injected.ok()) {
      errors_.fetch_add(1, std::memory_order_release);
      req->promise.set_value(std::move(injected));
      return future;
    }
  }

  // Admission: bound admitted-but-unstarted requests at max_queue. A pool
  // with no workers runs everything inline on the caller and never sheds
  // (matching ThreadPool's never-drop inline semantics).
  const bool inline_pool = active_pool().num_threads() == 0;
  const int64_t prior = pending_.fetch_add(1, std::memory_order_relaxed);
  if (!inline_pool && prior >= static_cast<int64_t>(options_.max_queue)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    ShedRequest(*req, "shed_queue_full");
    return future;
  }

  TaskStarted();
  auto task = [this, req] {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    RunRequest(*req);
    TaskFinished();
  };
  bool admitted = true;
  if (options_.pool != nullptr && options_.pool_max_queue > 0) {
    admitted = active_pool().TrySchedule(std::move(task),
                                         options_.pool_max_queue);
  } else {
    active_pool().Schedule(std::move(task));
  }
  queue_depth_gauge_->Set(static_cast<double>(queue_depth()));
  if (!admitted) {
    // Shard-pool backstop tripped: the tenant was under its own quota but
    // the shared pool is drowning in aggregate traffic.
    pending_.fetch_sub(1, std::memory_order_relaxed);
    TaskFinished();
    ShedRequest(*req, "shed_pool_backstop");
  }
  return future;
}

void PlanService::RunRequest(Request& req) {
  const double queue_ms = req.queued.ElapsedMillis();
  queue_ms_.Record(queue_ms);
  const int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  inflight_gauge_->Set(static_cast<double>(inflight));
  queue_depth_gauge_->Set(static_cast<double>(queue_depth()));
  if (auto gen = CurrentGeneration(); gen->rendezvous != nullptr) {
    gen->rendezvous->SetExpected(inflight);
  }

  QPS_TRACE_SPAN_VAR(span, "serve.plan");
  Timer timer;
  core::PlanRequestOptions ropts;
  ropts.deadline_ms = req.request.deadline_ms > 0.0
                          ? req.request.deadline_ms
                          : options_.default_deadline_ms;
  ropts.fail_on_deadline = req.request.fail_on_deadline;
  ropts.seed = req.request.seed;
  ropts.tenant_id = req.request.tenant_id.empty() ? options_.tenant_id
                                                  : req.request.tenant_id;

  // Cancellation: the caller's token when supplied; otherwise, for
  // fail_on_deadline requests, a service-armed one so a blown deadline
  // aborts the search cooperatively instead of running out the budget.
  // Best-effort requests keep their anytime semantics (no token).
  std::shared_ptr<util::CancelToken> deadline_token;
  const util::CancelToken* cancel = req.request.cancel.get();
  if (cancel == nullptr && req.request.fail_on_deadline &&
      ropts.deadline_ms > 0.0) {
    deadline_token = std::make_shared<util::CancelToken>();
    deadline_token->ArmDeadline(ropts.deadline_ms);
    cancel = deadline_token.get();
  }
  ropts.cancel = cancel;

  auto plan_once = [&]() -> StatusOr<core::PlanResult> {
    // Planning runs under the tenant's fault context, so chaos specs with
    // only_context follow this request onto whichever worker runs it.
    fault::ScopedContext fault_ctx(ropts.tenant_id);
    // The snapshot keeps planner, rendezvous and model alive for the whole
    // attempt, even if a swap publishes a new generation meanwhile.
    const std::shared_ptr<const Generation> gen = CurrentGeneration();
    if (BatchRendezvous* rdv = gen->rendezvous.get(); rdv != nullptr) {
      ropts.evaluate = [rdv](const query::Query& q,
                             const std::vector<const query::PlanNode*>& plans) {
        return rdv->Evaluate(q, plans);
      };
    }
    return gen->planner->Plan(req.request.query, ropts);
  };

  // Worker-side retry: transient planning failures re-plan here, each
  // attempt budgeted against the request deadline. Backoff jitter is a
  // pure function of (seed, attempt), so a fixed seed replays the same
  // schedule — and the same plan — regardless of scheduling.
  const RetryPolicy& retry = options_.retry;
  int retries_taken = 0;
  StatusOr<core::PlanResult> result = plan_once();
  while (!result.ok()) {
    const Status& failure = result.status();
    const bool cancelled = util::Cancelled(cancel);
    const int attempt = retries_taken + 1;
    if (cancelled || !retry.ShouldRetry(failure, attempt)) break;
    const double backoff_ms = retry.BackoffMs(attempt, req.request.seed);
    if (!RetryPolicy::FitsBudget(backoff_ms, timer.ElapsedMillis(),
                                 ropts.deadline_ms)) {
      retry_exhausted_.Increment();
      break;
    }
    if (options_.on_attempt) {
      options_.on_attempt(req.request, failure, /*final_attempt=*/false);
    }
    retry_attempts_.Increment();
    SleepForBackoff(backoff_ms);
    retries_taken += 1;
    result = plan_once();
  }
  if (!result.ok() && retries_taken >= retry.max_retries && retry.enabled() &&
      result.status().IsRetryable() && !util::Cancelled(cancel)) {
    // Ran out of attempts (as opposed to budget or a terminal failure).
    retry_exhausted_.Increment();
  }
  if (result.ok() && retries_taken > 0) retry_successes_.Increment();
  if (options_.on_attempt) {
    options_.on_attempt(req.request, result.status(), /*final_attempt=*/true);
  }

  const double latency_ms = timer.ElapsedMillis();
  latency_ms_.Record(latency_ms);
  span.AddAttr("ok", result.ok() ? 1 : 0);
  if (options_.audit != nullptr) {
    obs::AuditRecord record;
    record.query_hash = core::QueryFingerprint(req.request.query);
    record.backend = planner_name_;
    record.tenant = req.request.tenant_id.empty() ? options_.tenant_id
                                                  : req.request.tenant_id;
    record.outcome = result.ok() ? "ok" : "error";
    record.queue_ms = queue_ms;
    record.plan_ms = latency_ms;
    if (result.ok()) {
      record.stage = core::PlanStageName(result->stage);
      record.deadline_hit = result->deadline_hit;
      record.plans_evaluated = result->plans_evaluated;
      record.fallback_reason = result->fallback_reason;
    } else {
      record.fallback_reason = result.status().ToString();
      record.reason = result.status().reason();
    }
    options_.audit->Append(record);
  }
  if (result.ok()) {
    if (result->deadline_hit) deadline_hits_.Increment();
    completed_.fetch_add(1, std::memory_order_release);
  } else {
    if (result.status().IsDeadlineExceeded()) deadline_errors_.Increment();
    errors_.fetch_add(1, std::memory_order_release);
  }

  const int remaining = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  inflight_gauge_->Set(static_cast<double>(remaining));
  if (auto gen = CurrentGeneration(); gen->rendezvous != nullptr) {
    gen->rendezvous->SetExpected(std::max(remaining, 1));
  }
  req.promise.set_value(std::move(result));
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
