// Copyright 2026 The QPSeeker Authors
//
// Test helper: one tenant on a one-shard ShardedPlanService, with the
// per-request surface the serving tests drive (submit, stats, queue
// gauges, model swap) bound to that tenant.

#ifndef QPS_TESTS_ONE_TENANT_H_
#define QPS_TESTS_ONE_TENANT_H_

#include <future>
#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "serve/sharded_service.h"

namespace qps {
namespace serve {

class OneTenant {
 public:
  /// Builds the service (forced to one shard) and adds `tenant_id` with
  /// `deps` and `quota`; fails the test and returns null on error.
  static std::unique_ptr<OneTenant> Make(PlanServiceDeps deps,
                                         ShardedPlanServiceOptions options,
                                         TenantQuota quota = {32, false},
                                         std::string tenant_id = "solo") {
    options.shards = 1;
    auto sharded = ShardedPlanService::Create(std::move(options));
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    if (!sharded.ok()) return nullptr;
    TenantSpec spec;
    spec.tenant_id = tenant_id;
    spec.deps = std::move(deps);
    spec.quota = quota;
    const Status added = (*sharded)->AddTenant(std::move(spec));
    EXPECT_TRUE(added.ok()) << added.ToString();
    if (!added.ok()) return nullptr;
    return std::unique_ptr<OneTenant>(
        new OneTenant(std::move(*sharded), std::move(tenant_id)));
  }

  std::future<StatusOr<core::PlanResult>> Submit(PlanRequest request) {
    request.tenant_id = tenant_id_;
    return sharded_->Submit(std::move(request));
  }
  Status SwapModel(std::shared_ptr<const core::QpSeeker> model) {
    return sharded_->SwapTenantModel(tenant_id_, std::move(model));
  }

  PlanService::Stats stats() const { return core()->stats(); }
  core::GuardStats guard_stats() const { return core()->guard_stats(); }
  int inflight() const { return core()->inflight(); }
  size_t queue_depth() const { return core()->queue_depth(); }

 private:
  OneTenant(std::unique_ptr<ShardedPlanService> sharded, std::string id)
      : sharded_(std::move(sharded)), tenant_id_(std::move(id)) {}

  std::shared_ptr<const PlanService> core() const {
    return sharded_->Tenant(tenant_id_);
  }

  std::unique_ptr<ShardedPlanService> sharded_;
  std::string tenant_id_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_TESTS_ONE_TENANT_H_
