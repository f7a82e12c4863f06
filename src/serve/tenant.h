// Copyright 2026 The QPSeeker Authors
//
// Tenant metadata for sharded multi-tenant serving. A *tenant* is one
// (database, model, planner backend, config, quota) workload sharing the
// process with others. The shard ring assigns every tenant to a shard
// deterministically (consistent hashing over virtual nodes, so the
// assignment depends only on the tenant id and the shard count — never on
// registration order or process history).
//
// The service lives in sharded_service.h: ShardedPlanService validates a
// TenantSpec's id here and builds one PlanService core per tenant
// (plan_service.h) on its shard's pool, listed in that shard's tenant
// table.

#ifndef QPS_SERVE_TENANT_H_
#define QPS_SERVE_TENANT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace qps {
namespace serve {

/// Tenant ids become metric-name segments (qps.tenant.requests.<id>) and
/// audit fields, so they are restricted to the metric-name alphabet:
/// non-empty, at most 64 chars, [a-z0-9_] only. kInvalidArgument otherwise.
Status ValidateTenantId(const std::string& id);

/// 64-bit FNV-1a, the stable hash under the shard ring (std::hash is not
/// specified across implementations, and shard assignment must be
/// reproducible across processes and platforms).
uint64_t TenantHash(std::string_view s);

/// Consistent-hash ring over `num_shards` shards, each projected onto
/// `replicas` virtual nodes. ShardFor(tenant) walks to the first ring
/// point at or after the tenant's hash (wrapping), so the same tenant id
/// always lands on the same shard for a given shard count, and changing
/// the shard count only moves the tenants between the affected ring arcs.
class ShardRing {
 public:
  explicit ShardRing(int num_shards, int replicas = 32);

  int ShardFor(std::string_view tenant_id) const;
  int num_shards() const { return num_shards_; }

 private:
  struct Point {
    uint64_t hash;
    int shard;
  };
  int num_shards_;
  std::vector<Point> points_;  ///< sorted by hash
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_TENANT_H_
