// Copyright 2026 The QPSeeker Authors

#include "serve/sharded_service.h"

#include <algorithm>
#include <utility>

#include "util/fault.h"
#include "util/metrics.h"

namespace qps {
namespace serve {

namespace {

/// A future already resolved to `result`, for routing errors that never
/// reach a tenant core.
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

Status ShardedPlanService::AddTenant(TenantSpec spec) {
  QPS_RETURN_IF_ERROR(ValidateTenantId(spec.tenant_id));
  const int shard_index = ring_.ShardFor(spec.tenant_id);
  Shard& shard = *shards_[static_cast<size_t>(shard_index)];

  const std::string tenant_id = spec.tenant_id;
  // `this` outlives the core: RemoveTenant quiesces a core before dropping
  // it, and shards_, which own the cores, are destroyed before health_ and
  // options_.
  QPS_ASSIGN_OR_RETURN(std::shared_ptr<PlanService> core,
                       PlanService::Create(std::move(spec), options_,
                                           shard.pool.get(), &health_,
                                           shard_index));
  {
    // Check and list in one step under the shard lock: a racing
    // RemoveTenant of the same id sees the tenant either listed and
    // routed, or neither.
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.tenants.try_emplace(tenant_id, std::move(core)).second) {
      return Status::AlreadyExists("tenant already registered: " + tenant_id);
    }
  }
  PublishTenantCount();
  return Status::OK();
}

Status ShardedPlanService::RemoveTenant(const std::string& tenant_id) {
  std::shared_ptr<PlanService> core;
  {
    Shard& shard = ShardFor(tenant_id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenants.find(tenant_id);
    if (it == shard.tenants.end()) {
      return Status::NotFound("no such tenant: " + tenant_id);
    }
    core = std::move(it->second);
    shard.tenants.erase(it);
  }
  // Unrouted above; wait out everything already submitted so every
  // in-flight future resolves before the core (and its planners /
  // rendezvous) is destroyed.
  core->Quiesce();
  PublishTenantCount();
  return Status::OK();
}

std::vector<std::string> ShardedPlanService::tenant_ids() const {
  std::vector<std::string> ids;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, core] : shard->tenants) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ShardedPlanService::PublishTenantCount() const {
  metrics::Registry::Global()
      .GetGauge("qps.tenant.count")
      ->Set(static_cast<double>(tenant_ids().size()));
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
  return core->SwapModel(std::move(model));
}

std::shared_ptr<PlanService> ShardedPlanService::FindCore(
    const std::string& tenant_id) const {
  if (tenant_id.empty()) return nullptr;
  const Shard& shard = ShardFor(tenant_id);
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
            ? "PlanRequest.tenant_id is required"
            : "no such tenant: " + request.tenant_id));
  }
  return core->Submit(std::move(request));
}

StatusOr<PlanService::Stats> ShardedPlanService::TenantStats(
    const std::string& tenant_id) const {
  std::shared_ptr<PlanService> core = FindCore(tenant_id);
  if (core == nullptr) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  return core->stats();
}

StatusOr<core::HealthMonitor::KeyStats> ShardedPlanService::TenantHealth(
    const std::string& tenant_id) const {
  if (FindCore(tenant_id) == nullptr) {
    return Status::NotFound("no such tenant: " + tenant_id);
  }
  return health_.stats(tenant_id);
}

}  // namespace serve
}  // namespace qps
