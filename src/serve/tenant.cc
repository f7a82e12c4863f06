// Copyright 2026 The QPSeeker Authors

#include "serve/tenant.h"

#include <algorithm>

namespace qps {
namespace serve {

Status ValidateTenantId(const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("tenant id must not be empty");
  }
  if (id.size() > 64) {
    return Status::InvalidArgument("tenant id too long (max 64): " + id);
  }
  for (char c : id) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) {
      return Status::InvalidArgument(
          "tenant id must match [a-z0-9_]+ (metric-name alphabet): " + id);
    }
  }
  return Status::OK();
}

uint64_t TenantHash(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  // splitmix64 finalizer. Raw FNV-1a diffuses short, near-identical keys
  // (tenant_00, tenant_01, ...) into one narrow hash range, which parks
  // every such tenant on the same ring arc; the avalanche spreads them.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

ShardRing::ShardRing(int num_shards, int replicas)
    : num_shards_(std::max(1, num_shards)) {
  const int reps = std::max(1, replicas);
  points_.reserve(static_cast<size_t>(num_shards_) * static_cast<size_t>(reps));
  for (int s = 0; s < num_shards_; ++s) {
    for (int r = 0; r < reps; ++r) {
      const std::string node =
          "shard:" + std::to_string(s) + "#" + std::to_string(r);
      points_.push_back({TenantHash(node), s});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
            });
}

int ShardRing::ShardFor(std::string_view tenant_id) const {
  const uint64_t h = TenantHash(tenant_id);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, uint64_t key) { return p.hash < key; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->shard;
}

}  // namespace serve
}  // namespace qps
