// Copyright 2026 The QPSeeker Authors
//
// Bounded LRU cache for learned plan-cost predictions. MCTS revisits the
// same subplans constantly (every rollout through a shared prefix re-scores
// the completed plan), and greedy/guarded planning re-score candidates
// across steps. A prediction depends only on (query, plan shape, model
// weights): the estimated per-node annotations the encoder consumes are a
// deterministic function of the query and the plan's operator/relation/
// predicate structure, so the cache key is the pair
//
//   (QueryFingerprint(q), PlanShapeHash(plan))
//
// and the cache must be cleared whenever weights change (Train / Load —
// QpSeeker does this). Hits return the exact previously computed stats, so
// caching never alters planning results, only their cost.
//
// Metrics: qps.cache.hits / qps.cache.misses / qps.cache.evictions
// (process-wide), fed by the per-instance counters GetStats() reports (the
// qpsql \cache command) — one owned metric per event (obs/window.h).

#ifndef QPS_CORE_PLAN_CACHE_H_
#define QPS_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/window.h"
#include "query/plan.h"
#include "query/query.h"

namespace qps {
namespace core {

/// Order-sensitive structural hash of a query: relations (table + alias),
/// join predicates, and filter predicates including literal values.
uint64_t QueryFingerprint(const query::Query& q);

/// Recursive structural hash of a plan subtree: operator, scan relation,
/// join predicate indices, and both child subtrees (left/right sensitive).
/// Ignores the estimated/actual stats annotations — those are derived.
uint64_t PlanShapeHash(const query::PlanNode& plan);

/// Thread-safe bounded LRU map from (query fingerprint, plan shape) to a
/// predicted NodeStats triple.
class PlanPredictionCache {
 public:
  struct Stats {
    int64_t entries = 0;
    int64_t capacity_bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
  };

  /// `capacity_bytes` bounds the approximate in-memory footprint; at least
  /// one entry is always admitted when capacity is positive.
  explicit PlanPredictionCache(int64_t capacity_bytes);

  /// On hit copies the cached stats into `*out`, refreshes recency, and
  /// returns true. Records hit/miss metrics either way.
  bool Lookup(uint64_t query_fp, uint64_t plan_hash, query::NodeStats* out);

  /// Inserts or refreshes an entry, evicting least-recently-used entries
  /// while over capacity.
  void Insert(uint64_t query_fp, uint64_t plan_hash, const query::NodeStats& stats);

  /// Drops every entry (model weights changed). Keeps the counters.
  void Clear();

  Stats GetStats() const;

 private:
  struct Key {
    uint64_t query_fp;
    uint64_t plan_hash;
    bool operator==(const Key& o) const {
      return query_fp == o.query_fp && plan_hash == o.plan_hash;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    query::NodeStats stats;
  };

  // Approximate per-entry footprint: key + stats + list node + hash bucket.
  static constexpr int64_t kBytesPerEntry = 96;

  mutable std::mutex mu_;
  int64_t capacity_entries_;
  int64_t capacity_bytes_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  obs::OwnedCounter hits_{"qps.cache.hits"};
  obs::OwnedCounter misses_{"qps.cache.misses"};
  obs::OwnedCounter evictions_{"qps.cache.evictions"};
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_PLAN_CACHE_H_
