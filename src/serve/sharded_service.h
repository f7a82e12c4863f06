// Copyright 2026 The QPSeeker Authors
//
// Serving: many (database, model, planner-config) workloads in one
// process, isolated from each other. This is the one public service; a
// single workload is a one-tenant ShardedPlanService. The service owns N
// shards; each shard owns one worker pool and one tenant table, and hosts
// the tenants the consistent-hash ring (tenant.h) assigns to it. Every
// tenant gets its own PlanService core (plan_service.h): its own planner,
// admission quota, retry state machine and BatchRendezvous, running on the
// shard's pool. So:
//
//  - batching stays intra-tenant and therefore intra-model (cross-query
//    fusion keeps working, and plans stay a function of (query, seed));
//  - a hot tenant exhausts *its* quota (max_pending) and sheds or degrades
//    on its own budget, while cold tenants on the same shard keep their
//    latency; the shard's shard_max_queue is only a backstop against
//    aggregate overload;
//  - model swaps are per tenant (SwapTenantModel replaces only that
//    tenant's model generation), so a ModelManager canary gate can guard
//    each tenant's reloads independently.
//
// Control plane: AddTenant / RemoveTenant / SwapTenantModel are safe under
// live traffic. A tenant is routed exactly when it is listed: its shard's
// table is the one source of truth, checked and changed under the shard
// lock. RemoveTenant unroutes the tenant first (new Submits return
// kNotFound), then quiesces its core: in-flight futures, delayed retries
// included, resolve before the core is destroyed.
//
// Self-healing (DESIGN.md §16): one HealthMonitor breaker per tenant,
// which each core consults at admission and feeds from its planning
// outcomes. A tripped tenant is quarantined: Submit fast-fails
// kUnavailable (reason "quarantined"), or degrades to the inline DP
// planner when the tenant's quota allows, until live half-open probes
// recover it. Transient failures are retried by the core's one state
// machine, under the request's deadline budget, with seeded deterministic
// backoff on the shard pool's delayed queue.
//
// Metrics: every tenant core feeds qps.tenant.{requests,shed,
// latency_ms}.<tenant_id> windowed series and the qps.serve.* families;
// the breaker feeds qps.health.{state,quarantines,probes,recoveries}.<key>;
// qps.tenant.count gauges the tenant tables.

#ifndef QPS_SERVE_SHARDED_SERVICE_H_
#define QPS_SERVE_SHARDED_SERVICE_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/health.h"
#include "serve/plan_service.h"
#include "serve/tenant.h"

namespace qps {
namespace obs {
class AuditLog;
}  // namespace obs

namespace serve {

struct ShardedPlanServiceOptions {
  /// Shard count; each shard runs its own worker pool.
  int shards = 2;

  /// Worker threads per shard pool (a tenant can use the whole shard when
  /// it is alone on it).
  int workers_per_shard = 4;

  /// Backstop on each shard pool's queue, across all of its tenants
  /// (0 = unbounded). Tenants shed on their own quota first; this bound
  /// only trips when the aggregate outruns the pool.
  size_t shard_max_queue = 256;

  /// Deadline for requests that don't carry their own (0 = none).
  double default_deadline_ms = 0.0;

  /// Cross-query batching knobs for every tenant rendezvous.
  int max_batch = 16;
  double flush_timeout_ms = 0.5;

  /// Optional audit log shared by every tenant core (records carry the
  /// tenant id). Non-owning.
  obs::AuditLog* audit = nullptr;

  /// Per-tenant circuit breaker (core/health.h): planning outcomes feed a
  /// rolling error-rate window per tenant; a tripping tenant is
  /// quarantined (fast-fail kUnavailable, or inline DP degrade when its
  /// quota sets shed_to_baseline) and recovered through live probes.
  /// Per-shard rates are tracked as shadow keys "shard_<i>". Set
  /// health.clock for ManualClock tests.
  core::HealthOptions health;

  /// Retry policy of every tenant core, for transient failures at any
  /// stage of a request. Disabled by default.
  RetryPolicy retry;
};

class ShardedPlanService {
 public:
  static StatusOr<std::unique_ptr<ShardedPlanService>> Create(
      ShardedPlanServiceOptions options = {});

  ShardedPlanService(const ShardedPlanService&) = delete;
  ShardedPlanService& operator=(const ShardedPlanService&) = delete;

  /// Builds the tenant's core and lists it on the owning shard.
  /// kInvalidArgument for bad ids (ValidateTenantId) or deps the core
  /// rejects (unknown backend, a missing model, shed_to_baseline without a
  /// baseline); kAlreadyExists when the id is listed.
  Status AddTenant(TenantSpec spec);

  /// Unroutes the tenant (subsequent Submits return kNotFound), quiesces
  /// its in-flight requests (their futures resolve), then destroys the
  /// core. kNotFound for unknown tenants.
  Status RemoveTenant(const std::string& tenant_id);

  /// Hot-swaps one tenant's model under traffic (PlanService::SwapModel on
  /// its core): use as the per-tenant ModelManager swap hook so each
  /// tenant's reloads ride the canary q-error gate independently.
  Status SwapTenantModel(const std::string& tenant_id,
                         std::shared_ptr<const core::QpSeeker> model);

  /// Hands the request to its tenant's core (plan_service.h describes what
  /// the core does with it). Unknown or empty tenant ids resolve the
  /// future immediately with kNotFound.
  std::future<StatusOr<core::PlanResult>> Submit(PlanRequest request);

  /// Deterministic shard assignment (pure function of id + shard count).
  int ShardOf(const std::string& tenant_id) const {
    return ring_.ShardFor(tenant_id);
  }

  /// The tenant's core, read-only (stats, guard stats, queue gauges,
  /// quota, backend), or null for unknown tenants.
  std::shared_ptr<const PlanService> Tenant(const std::string& tenant_id) const {
    return FindCore(tenant_id);
  }

  StatusOr<PlanService::Stats> TenantStats(const std::string& tenant_id) const;

  /// Breaker stats for one tenant (kNotFound for unknown tenants) and the
  /// whole monitor (tenants plus shard_<i> shadow keys), for qpsql \health.
  StatusOr<core::HealthMonitor::KeyStats> TenantHealth(
      const std::string& tenant_id) const;
  const core::HealthMonitor& health() const { return health_; }

  /// Listed tenant ids, sorted.
  std::vector<std::string> tenant_ids() const;
  int num_shards() const { return ring_.num_shards(); }

 private:
  explicit ShardedPlanService(ShardedPlanServiceOptions options);

  struct Shard {
    /// Declared first, so destroyed last: each core's destructor waits out
    /// its requests (PlanService::Quiesce), which run on this pool.
    std::unique_ptr<util::ThreadPool> pool;
    mutable std::mutex mu;  ///< guards `tenants`
    /// The shard's tenant table: listed exactly when routed. shared_ptr
    /// so Submit can drop the shard lock before the (possibly
    /// inline-degrading) core call, and RemoveTenant can quiesce outside
    /// the lock.
    std::map<std::string, std::shared_ptr<PlanService>> tenants;
  };

  Shard& ShardFor(const std::string& tenant_id) const {
    return *shards_[static_cast<size_t>(ring_.ShardFor(tenant_id))];
  }

  /// The tenant's core, or null. Never blocks on more than the shard map
  /// lock.
  std::shared_ptr<PlanService> FindCore(const std::string& tenant_id) const;

  /// Publishes qps.tenant.count.
  void PublishTenantCount() const;

  ShardedPlanServiceOptions options_;
  ShardRing ring_;
  /// Declared before shards_: tenant cores (owned by shards_) hold a
  /// pointer to the monitor, so it must be destroyed after them.
  core::HealthMonitor health_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_SHARDED_SERVICE_H_
