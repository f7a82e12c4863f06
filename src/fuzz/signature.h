// Copyright 2026 The QPSeeker Authors
//
// Behavior signatures: the fuzzer's coverage metric. AFL counts branch
// edges; a planner's interesting state space is not its branches but its
// *decisions*, so we hash what the planning ladder did — plan shape,
// operator mix, which rung served, guard/fallback trips, result status,
// and the cardinality q-error magnitude — into one 64-bit signature per
// (query, backend-set) execution. A mutant that produces a signature the
// campaign has not seen before is novel and enters the seed queue.

#ifndef QPS_FUZZ_SIGNATURE_H_
#define QPS_FUZZ_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/planner_api.h"
#include "query/plan.h"
#include "query/query.h"

namespace qps {
namespace fuzz {

/// What one backend did with one query. Collected by the differential
/// oracle; hashed (ProbeSignature) into the campaign coverage map.
struct BackendProbe {
  std::string backend;
  StatusCode plan_status = StatusCode::kOk;
  core::PlanStage stage = core::PlanStage::kTraditional;
  bool used_neural = false;
  bool deadline_hit = false;
  std::string fallback_reason;
  uint64_t plan_shape_hash = 0;  ///< 0 when planning failed
  int op_counts[query::kNumOpTypes] = {0};
  int64_t guard_trips = 0;  ///< neural-failure + circuit-transition delta
  StatusCode exec_status = StatusCode::kOk;
  double actual_rows = -1.0;    ///< root cardinality; -1 = not executed
  double estimated_rows = 0.0;  ///< root cardinality estimate
  int qerror_decile = -1;       ///< QErrorDecile(est, actual); -1 = unknown
};

/// Order-insensitive structural hash of a plan tree: operator kinds, tree
/// parenthesization, and the *tables* (not aliases) at the leaves, so the
/// same shape found from a permuted FROM list hashes identically. Unlike
/// core::PlanShapeHash, the prediction-cache key over one query's relation
/// indexes, it compares plans across queries.
uint64_t AliasFreeShapeHash(const query::Query& q, const query::PlanNode& plan);

/// Buckets the root-cardinality q-error into 10 log-scale deciles:
/// 0 = essentially exact, 9 = off by >= 2^9. Zero-row results use +1
/// smoothing so the bucket stays defined.
int QErrorDecile(double estimated, double actual);

/// Deterministic 64-bit digest of one probe.
uint64_t ProbeSignature(const BackendProbe& probe);

/// Digest of a whole differential run (all backends, order-sensitive in
/// the fixed backend order the oracle uses).
uint64_t CombinedSignature(const std::vector<BackendProbe>& probes);

/// The set of signatures a campaign has observed.
class CoverageMap {
 public:
  /// Inserts; returns true when the signature was new.
  bool Add(uint64_t signature) { return seen_.insert(signature).second; }
  size_t size() const { return seen_.size(); }

 private:
  std::unordered_set<uint64_t> seen_;
};

}  // namespace fuzz
}  // namespace qps

#endif  // QPS_FUZZ_SIGNATURE_H_
