// Copyright 2026 The QPSeeker Authors

#include "serve/sharded_service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/window.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace qps {
namespace serve {

namespace {

/// A future already resolved to `result`, for routing errors and
/// caller-side retry outcomes that never reach (or already left) a tenant
/// core.
std::future<StatusOr<core::PlanResult>> ReadyFuture(
    StatusOr<core::PlanResult> result) {
  std::promise<StatusOr<core::PlanResult>> promise;
  auto future = promise.get_future();
  promise.set_value(std::move(result));
  return future;
}

}  // namespace

StatusOr<std::unique_ptr<ShardedPlanService>> ShardedPlanService::Create(
    ShardedPlanServiceOptions options) {
  if (options.shards < 1) {
    return Status::InvalidArgument("ShardedPlanService needs >= 1 shard");
  }
  if (options.workers_per_shard < 1) {
    return Status::InvalidArgument(
        "ShardedPlanService needs >= 1 worker per shard");
  }
  return std::unique_ptr<ShardedPlanService>(
      new ShardedPlanService(std::move(options)));
}

ShardedPlanService::ShardedPlanService(ShardedPlanServiceOptions options)
    : options_(std::move(options)),
      ring_(options_.shards),
      health_(options_.health) {
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->pool =
        std::make_unique<util::ThreadPool>(options_.workers_per_shard);
    shards_.push_back(std::move(shard));
  }
}

ShardedPlanService::~ShardedPlanService() {
  // Tenant cores run on shard pools they don't own; quiesce each one
  // before any pool is torn down (members destroy in reverse declaration
  // order, so shards_ — and with it the pools — outlive this loop).
  for (auto& shard : shards_) {
    std::map<std::string, std::shared_ptr<PlanService>> tenants;
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      tenants.swap(shard->tenants);
    }
    for (auto& [id, core] : tenants) core->Quiesce();
  }
}

Status ShardedPlanService::AddTenant(TenantSpec spec) {
  // Registry first: it owns id validation and duplicate rejection.
  QPS_RETURN_IF_ERROR(registry_.Add(spec));
  const int shard_index = ring_.ShardFor(spec.tenant_id);
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];

  PlanServiceOptions sopts;
  sopts.max_queue = spec.quota.max_pending;
  sopts.pool = shard.pool.get();
  sopts.pool_max_queue = options_.shard_max_queue;
  sopts.tenant_id = spec.tenant_id;
  sopts.default_deadline_ms = options_.default_deadline_ms;
  sopts.shed_to_baseline = spec.quota.shed_to_baseline;
  sopts.max_batch = options_.max_batch;
  sopts.flush_timeout_ms = options_.flush_timeout_ms;
  sopts.audit = options_.audit;
  sopts.retry = options_.retry;
  // Every planning attempt feeds the tenant breaker and the shard's shadow
  // rate key. `this` outlives the core: RemoveTenant and the destructor
  // quiesce the core before destroying it, and health_ is declared before
  // shards_.
  sopts.on_attempt = [this, shard_index](const PlanRequest& request,
                                         const Status& outcome,
                                         bool final_attempt) {
    RecordAttempt("shard_" + std::to_string(shard_index), request, outcome,
                  final_attempt);
  };

  const std::string tenant_id = spec.tenant_id;
  auto core_or = PlanService::Create(std::move(spec.deps), std::move(sopts));
  if (!core_or.ok()) {
    // Roll the registration back so a failed build leaves no ghost tenant.
    (void)registry_.Remove(tenant_id);
    return core_or.status();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.tenants.emplace(tenant_id, std::move(*core_or));
  }
  metrics::Registry::Global()
      .GetGauge("qps.tenant.count")
      ->Set(static_cast<double>(registry_.size()));
  return Status::OK();
}

Status ShardedPlanService::RemoveTenant(const std::string& tenant_id) {
  QPS_RETURN_IF_ERROR(registry_.Remove(tenant_id));
  Shard& shard = *shards_[static_cast<size_t>(ring_.ShardFor(tenant_id))];
  std::shared_ptr<PlanService> core;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenants.find(tenant_id);
    if (it != shard.tenants.end()) {
      core = std::move(it->second);
      shard.tenants.erase(it);
    }
  }
  if (core != nullptr) {
    // Unrouted above; wait out everything already admitted so every
    // in-flight future resolves before the core (and its planners /
    // rendezvous) is destroyed.
    core->Quiesce();
  }
  metrics::Registry::Global()
      .GetGauge("qps.tenant.count")
      ->Set(static_cast<double>(registry_.size()));
  return Status::OK();
}

void ShardedPlanService::RecordAttempt(const std::string& shard_key,
                                       const PlanRequest& request,
                                       const Status& outcome,
                                       bool final_attempt) {
  // Cancellation is caller-driven, not model health: a cancelled outcome
  // must neither trip nor recover the breaker. A cancelled probe still has
  // to give its slot back.
  if (outcome.reason() == "cancelled") {
    if (final_attempt && request.health_probe) {
      health_.AbandonProbe(request.tenant_id);
    }
    return;
  }
  health_.RecordObserved(shard_key, outcome);
  // Intermediate (retried) attempts count as plain samples; only the final
  // outcome settles a probe admission.
  health_.Record(request.tenant_id, outcome,
                 final_attempt && request.health_probe);
}

Status ShardedPlanService::SwapTenantModel(
    const std::string& tenant_id,
    std::shared_ptr<const core::QpSeeker> model) {
  {
    // Chaos hook for control-plane swaps (e.g. a canary push racing live
    // traffic); scoped so only_context specs can target one tenant.
    fault::ScopedContext fault_ctx(tenant_id);
    QPS_RETURN_IF_ERROR(fault::Check("tenant.swap"));
  }
  std::shared_ptr<PlanService> core = FindCore(tenant_id);
  if (core == nullptr) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  QPS_RETURN_IF_ERROR(core->SwapModel(model));
  return registry_.UpdateModel(tenant_id, std::move(model));
}

std::shared_ptr<PlanService> ShardedPlanService::FindCore(
    const std::string& tenant_id) const {
  if (tenant_id.empty()) return nullptr;
  const Shard& shard =
      *shards_[static_cast<size_t>(ring_.ShardFor(tenant_id))];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenants.find(tenant_id);
  return it != shard.tenants.end() ? it->second : nullptr;
}

std::future<StatusOr<core::PlanResult>> ShardedPlanService::Submit(
    PlanRequest request) {
  std::shared_ptr<PlanService> core = FindCore(request.tenant_id);
  if (core == nullptr) {
    return ReadyFuture(Status::NotFound(
        request.tenant_id.empty()
            ? "PlanRequest.tenant_id is required for sharded serving"
            : "no such tenant: " + request.tenant_id));
  }
  const std::string tenant_id = request.tenant_id;
  const RetryPolicy& retry = options_.retry;
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  Timer timer;

  // Caller-side retry: handles failures that resolve synchronously on this
  // thread — injected shard.schedule/serve.submit faults, quarantine
  // rejections, shed bursts — before the caller ever sees them. Anything
  // that makes it onto a worker resolves through the worker-side loop
  // instead; its future is returned as-is (never blocked on here).
  for (int attempt = 1;; ++attempt) {
    Status failure = Status::OK();
    {
      fault::ScopedContext fault_ctx(tenant_id);
      failure = fault::Check("shard.schedule");
    }
    if (failure.ok()) {
      const core::AdmitDecision admit = health_.Admit(tenant_id);
      if (admit == core::AdmitDecision::kReject) {
        if (core->options().shed_to_baseline) {
          // Quarantined but degradable: serve an inline DP plan without
          // touching the shard pool the quarantine is protecting.
          return core->SubmitDegraded(std::move(request), "quarantined");
        }
        failure = Status::Unavailable("tenant quarantined by health monitor")
                      .SetReason("quarantined");
      } else {
        const bool probe = (admit == core::AdmitDecision::kProbe);
        request.health_probe = probe;
        PlanRequest replay;
        const bool may_replay = retry.enabled();
        if (may_replay) replay = request;
        auto future = core->Submit(std::move(request));
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          // Admitted onto a worker; the worker-side loop owns retries and
          // health recording from here.
          if (attempt > 1) retry_successes_.Increment();
          return future;
        }
        // Synchronously resolved: a shed/degrade or an injected submit
        // fault (sharded pools always have workers, so real planning never
        // resolves inline here) — none of which reached the worker, so the
        // probe slot is handed back rather than judged.
        StatusOr<core::PlanResult> ready = future.get();
        if (probe) health_.AbandonProbe(tenant_id);
        if (ready.ok()) {
          if (attempt > 1) retry_successes_.Increment();
          return ReadyFuture(std::move(ready));
        }
        failure = ready.status();
        if (failure.reason() == "fault_injected") {
          health_.Record(tenant_id, failure, /*probe=*/false);
        }
        if (!may_replay) return ReadyFuture(std::move(failure));
        request = std::move(replay);
      }
    }
    if (!retry.ShouldRetry(failure, attempt)) {
      // Out of attempts (as opposed to a terminal failure), counted like
      // the worker-side loop counts it.
      if (retry.enabled() && failure.IsRetryable()) {
        retry_exhausted_.Increment();
      }
      return ReadyFuture(std::move(failure));
    }
    const double backoff_ms = retry.BackoffMs(attempt, request.seed);
    if (!RetryPolicy::FitsBudget(backoff_ms, timer.ElapsedMillis(),
                                 deadline_ms)) {
      retry_exhausted_.Increment();
      return ReadyFuture(std::move(failure));
    }
    retry_attempts_.Increment();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

void ShardedPlanService::RecordQError(const std::string& tenant_id,
                                      double qerror) {
  if (!registry_.Contains(tenant_id)) return;
  obs::OwnedHistogram* qerr = nullptr;
  {
    std::lock_guard<std::mutex> lock(qerr_mu_);
    std::unique_ptr<obs::OwnedHistogram>& slot = qerr_[tenant_id];
    if (slot == nullptr) {
      slot = std::make_unique<obs::OwnedHistogram>(
          "qps.tenant.qerr", obs::Feed::kCumulative, "qps.tenant.qerr",
          tenant_id);
    }
    qerr = slot.get();
  }
  qerr->Record(qerror);
}

StatusOr<PlanService::Stats> ShardedPlanService::TenantStats(
    const std::string& tenant_id) const {
  std::shared_ptr<PlanService> core = FindCore(tenant_id);
  if (core == nullptr) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  return core->stats();
}

StatusOr<core::GuardStats> ShardedPlanService::TenantGuardStats(
    const std::string& tenant_id) const {
  std::shared_ptr<PlanService> core = FindCore(tenant_id);
  if (core == nullptr) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  return core->guard_stats();
}

StatusOr<core::HealthMonitor::KeyStats> ShardedPlanService::TenantHealth(
    const std::string& tenant_id) const {
  if (!registry_.Contains(tenant_id)) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  return health_.stats(tenant_id);
}

}  // namespace serve
}  // namespace qps
