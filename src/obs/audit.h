// Copyright 2026 The QPSeeker Authors
//
// Per-request structured audit log: one JSON line per served planning
// request, capturing what an operator needs to reconstruct an incident —
// which query (hash), which backend and ladder stage served it, how the
// deadline/shed policy resolved, and where the latency went (queue vs
// plan, the same timers that feed the serve.* trace spans).
//
//   {"ts_ms":12.5,"query_hash":"9f2c...","backend":"guarded",
//    "stage":"neural","outcome":"ok","deadline_hit":false,
//    "queue_ms":0.12,"plan_ms":24.1,"plans_evaluated":64,
//    "fallback":""}
//
// Append() serializes under a mutex and writes line-buffered; an audit
// line is never torn. Lines appended: qps.obs.audit_records; failed
// writes: qps.obs.audit_errors (the serving path never throws on a full
// disk). The log is safe to share across serving workers.

#ifndef QPS_OBS_AUDIT_H_
#define QPS_OBS_AUDIT_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "util/status.h"

namespace qps {
namespace obs {

/// One served request, as recorded by a serve::PlanService tenant core.
struct AuditRecord {
  uint64_t query_hash = 0;      ///< core::QueryFingerprint
  std::string backend;          ///< planner backend name
  std::string tenant;           ///< tenant id
  std::string stage;            ///< ladder stage that served ("" if none)
  std::string outcome;          ///< ok | error | shed | shed_degraded
  bool deadline_hit = false;
  double queue_ms = 0.0;        ///< admission -> worker pickup
  double plan_ms = 0.0;         ///< inside Planner::Plan
  int plans_evaluated = 0;
  std::string fallback_reason;  ///< ladder detail; empty when first choice
  /// Machine-readable cause token for non-ok outcomes: "shed_queue_full",
  /// "shed_pool_backstop", "quarantined", "fault_injected", "cancelled".
  /// Mirrors Status::reason(); empty for ok outcomes.
  std::string reason;
};

/// Renders the single-line JSON form (no trailing newline); exposed so
/// tests can assert the schema without a file.
std::string RenderAuditJson(const AuditRecord& record, double ts_ms);

class AuditLog {
 public:
  /// Opens `path` for appending. kIOError when the file cannot be opened.
  static StatusOr<std::unique_ptr<AuditLog>> Open(const std::string& path);

  /// Appends one record as a JSON line. Never fails the caller: write
  /// errors bump qps.obs.audit_errors and are otherwise swallowed.
  void Append(const AuditRecord& record);

  int64_t records_written() const;
  const std::string& path() const { return path_; }

 private:
  explicit AuditLog(std::string path);

  std::string path_;
  mutable std::mutex mu_;
  std::ofstream file_;
  int64_t written_ = 0;
};

}  // namespace obs
}  // namespace qps

#endif  // QPS_OBS_AUDIT_H_
