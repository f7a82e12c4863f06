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

struct ServeMetrics {
  metrics::Counter* requests;
  metrics::Counter* shed;
  metrics::Counter* deadline_misses;
  metrics::Gauge* inflight;
  metrics::Gauge* queue_depth;
  metrics::Histogram* queue_ms;
  metrics::Histogram* latency_ms;
  /// Sliding-window mirrors of the cumulative series above: request/shed
  /// rates and rolling latency percentiles for the export surface and
  /// qps_top (obs/window.h).
  /// Retry accounting (worker-side and caller-side loops both feed these).
  metrics::Counter* retry_attempts;
  metrics::Counter* retry_exhausted;
  metrics::Counter* retry_success;
  obs::WindowedCounter* requests_window;
  obs::WindowedCounter* shed_window;
  obs::WindowedCounter* retry_attempts_window;
  obs::WindowedHistogram* queue_ms_window;
  obs::WindowedHistogram* latency_ms_window;

  static const ServeMetrics& Get() {
    static const ServeMetrics m = [] {
      auto& reg = metrics::Registry::Global();
      auto& win = obs::WindowRegistry::Global();
      ServeMetrics out;
      out.requests = reg.GetCounter("qps.serve.requests");
      out.shed = reg.GetCounter("qps.serve.shed");
      out.deadline_misses = reg.GetCounter("qps.serve.deadline_misses");
      out.inflight = reg.GetGauge("qps.serve.inflight");
      out.queue_depth = reg.GetGauge("qps.serve.queue_depth");
      out.queue_ms = reg.GetHistogram("qps.serve.queue_ms");
      out.latency_ms = reg.GetHistogram("qps.serve.latency_ms");
      out.retry_attempts = reg.GetCounter("qps.serve.retries.attempts");
      out.retry_exhausted = reg.GetCounter("qps.serve.retries.exhausted");
      out.retry_success =
          reg.GetCounter("qps.serve.retries.success_after_retry");
      out.requests_window = win.GetCounter("qps.serve.requests");
      out.shed_window = win.GetCounter("qps.serve.shed");
      out.retry_attempts_window = win.GetCounter("qps.serve.retries.attempts");
      out.queue_ms_window = win.GetHistogram("qps.serve.queue_ms");
      out.latency_ms_window = win.GetHistogram("qps.serve.latency_ms");
      return out;
    }();
    return m;
  }
};

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
    gen->rendezvous =
        std::make_unique<BatchRendezvous>(model.get(), ropts, &batching_);
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
      gopts_(deps.guard_options) {
  if (!options_.tenant_id.empty()) {
    auto& win = obs::WindowRegistry::Global();
    tenant_requests_ =
        win.GetCounter("qps.tenant.requests." + options_.tenant_id);
    tenant_shed_ = win.GetCounter("qps.tenant.shed." + options_.tenant_id);
    tenant_latency_ =
        win.GetHistogram("qps.tenant.latency_ms." + options_.tenant_id);
  }
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
  const ServeMetrics& sm = ServeMetrics::Get();
  sm.shed->Increment();
  sm.shed_window->Increment();
  if (tenant_shed_ != nullptr) tenant_shed_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.shed += 1;
    if (shed_planner_ != nullptr) stats_.shed_degraded += 1;
  }
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
  const ServeMetrics& sm = ServeMetrics::Get();
  sm.requests->Increment();
  sm.requests_window->Increment();
  if (tenant_requests_ != nullptr) tenant_requests_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.submitted += 1;
  }
  auto req = std::make_shared<Request>();
  req->request = std::move(request);
  auto future = req->promise.get_future();
  ShedRequest(*req, reason);
  return future;
}

std::future<StatusOr<core::PlanResult>> PlanService::Submit(
    PlanRequest request) {
  const ServeMetrics& sm = ServeMetrics::Get();
  QPS_TRACE_SPAN("serve.submit");
  sm.requests->Increment();
  sm.requests_window->Increment();
  if (tenant_requests_ != nullptr) tenant_requests_->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.submitted += 1;
  }

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
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.errors += 1;
      }
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
  sm.queue_depth->Set(static_cast<double>(queue_depth()));
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
  const ServeMetrics& sm = ServeMetrics::Get();
  const double queue_ms = req.queued.ElapsedMillis();
  sm.queue_ms->Record(queue_ms);
  sm.queue_ms_window->Record(queue_ms);
  const int inflight = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  sm.inflight->Set(static_cast<double>(inflight));
  sm.queue_depth->Set(static_cast<double>(queue_depth()));
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
      sm.retry_exhausted->Increment();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.retry_exhausted += 1;
      }
      break;
    }
    if (options_.on_attempt) {
      options_.on_attempt(req.request, failure, /*final_attempt=*/false);
    }
    sm.retry_attempts->Increment();
    sm.retry_attempts_window->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_attempts += 1;
    }
    SleepForBackoff(backoff_ms);
    retries_taken += 1;
    result = plan_once();
  }
  if (!result.ok() && retries_taken >= retry.max_retries && retry.enabled() &&
      result.status().IsRetryable() && !util::Cancelled(cancel)) {
    // Ran out of attempts (as opposed to budget or a terminal failure).
    sm.retry_exhausted->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_exhausted += 1;
    }
  }
  if (result.ok() && retries_taken > 0) {
    sm.retry_success->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.retry_successes += 1;
    }
  }
  if (options_.on_attempt) {
    options_.on_attempt(req.request, result.status(), /*final_attempt=*/true);
  }

  const double latency_ms = timer.ElapsedMillis();
  sm.latency_ms->Record(latency_ms);
  sm.latency_ms_window->Record(latency_ms);
  if (tenant_latency_ != nullptr) tenant_latency_->Record(latency_ms);
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
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (result.ok()) {
      stats_.completed += 1;
      if (result->deadline_hit) {
        stats_.deadline_hits += 1;
        sm.deadline_misses->Increment();
      }
    } else {
      stats_.errors += 1;
      if (result.status().IsDeadlineExceeded()) {
        sm.deadline_misses->Increment();
      }
    }
  }

  const int remaining = inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
  sm.inflight->Set(static_cast<double>(remaining));
  if (auto gen = CurrentGeneration(); gen->rendezvous != nullptr) {
    gen->rendezvous->SetExpected(std::max(remaining, 1));
  }
  req.promise.set_value(std::move(result));
}

PlanService::Stats PlanService::stats() const {
  Stats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.batching = batching_.snapshot();
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
