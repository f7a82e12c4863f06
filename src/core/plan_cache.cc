// Copyright 2026 The QPSeeker Authors

#include "core/plan_cache.h"

#include <algorithm>
#include <cstring>


namespace qps {
namespace core {

namespace {

// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t Combine(uint64_t seed, uint64_t v) { return Mix(seed ^ Mix(v)); }

uint64_t HashString(uint64_t seed, const std::string& s) {
  seed = Combine(seed, s.size());
  for (char c : s) seed = Combine(seed, static_cast<uint64_t>(static_cast<uint8_t>(c)));
  return seed;
}

uint64_t HashValue(uint64_t seed, const storage::Value& v) {
  seed = Combine(seed, static_cast<uint64_t>(v.type));
  switch (v.type) {
    case storage::DataType::kInt64:
      return Combine(seed, static_cast<uint64_t>(v.i));
    case storage::DataType::kFloat64: {
      uint64_t bits = 0;
      std::memcpy(&bits, &v.d, sizeof(bits));
      return Combine(seed, bits);
    }
    case storage::DataType::kString:
      return HashString(seed, v.s);
  }
  return seed;
}

}  // namespace

uint64_t QueryFingerprint(const query::Query& q) {
  uint64_t h = 0x5150536565ULL;  // arbitrary non-zero seed
  h = Combine(h, q.relations.size());
  for (const auto& rel : q.relations) {
    h = Combine(h, static_cast<uint64_t>(rel.table_id));
    h = HashString(h, rel.alias);
  }
  h = Combine(h, q.joins.size());
  for (const auto& j : q.joins) {
    h = Combine(h, static_cast<uint64_t>(j.left_rel));
    h = Combine(h, static_cast<uint64_t>(j.left_column));
    h = Combine(h, static_cast<uint64_t>(j.right_rel));
    h = Combine(h, static_cast<uint64_t>(j.right_column));
    h = Combine(h, static_cast<uint64_t>(j.schema_edge));
  }
  h = Combine(h, q.filters.size());
  for (const auto& f : q.filters) {
    h = Combine(h, static_cast<uint64_t>(f.rel));
    h = Combine(h, static_cast<uint64_t>(f.column));
    h = Combine(h, static_cast<uint64_t>(f.op));
    h = HashValue(h, f.value);
  }
  return h;
}

uint64_t PlanShapeHash(const query::PlanNode& plan) {
  uint64_t h = Combine(0x706c616eULL, static_cast<uint64_t>(plan.op));
  h = Combine(h, static_cast<uint64_t>(plan.rel));
  h = Combine(h, plan.join_preds.size());
  for (int p : plan.join_preds) h = Combine(h, static_cast<uint64_t>(p));
  // Distinct tags keep (left-only) and (right-only) shapes from colliding.
  h = Combine(h, plan.left ? Combine(1, PlanShapeHash(*plan.left)) : 2);
  h = Combine(h, plan.right ? Combine(3, PlanShapeHash(*plan.right)) : 4);
  return h;
}

size_t PlanPredictionCache::KeyHash::operator()(const Key& k) const {
  return static_cast<size_t>(Combine(k.query_fp, k.plan_hash));
}

PlanPredictionCache::PlanPredictionCache(int64_t capacity_bytes)
    : capacity_entries_(capacity_bytes > 0
                            ? std::max<int64_t>(1, capacity_bytes / kBytesPerEntry)
                            : 0),
      capacity_bytes_(capacity_bytes) {}

bool PlanPredictionCache::Lookup(uint64_t query_fp, uint64_t plan_hash,
                                 query::NodeStats* out) {
  const Key key{query_fp, plan_hash};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.Increment();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->stats;
  hits_.Increment();
  return true;
}

void PlanPredictionCache::Insert(uint64_t query_fp, uint64_t plan_hash,
                                 const query::NodeStats& stats) {
  if (capacity_entries_ <= 0) return;
  const Key key{query_fp, plan_hash};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->stats = stats;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, stats});
  index_[key] = lru_.begin();
  while (static_cast<int64_t>(lru_.size()) > capacity_entries_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_.Increment();
  }
}

void PlanPredictionCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

PlanPredictionCache::Stats PlanPredictionCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.entries = static_cast<int64_t>(lru_.size());
  s.capacity_bytes = capacity_bytes_;
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.evictions = evictions_.value();
  return s;
}

}  // namespace core
}  // namespace qps
