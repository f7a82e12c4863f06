// Copyright 2026 The QPSeeker Authors
//
// The differential oracle: one query in, every planning backend out. For a
// valid, connected query the unified planner contract (planner_api.h) says
// all four backends must produce a ValidatePlan-clean plan with finite
// stats — and because every valid plan of the same query computes the same
// COUNT(*), executing the neural-chosen and DP-chosen plans must agree on
// the root cardinality. Each backend run is condensed into a BackendProbe
// (signature.h); contract breaches become OracleViolations the fuzzer
// minimizes and checks into the regression corpus.

#ifndef QPS_FUZZ_ORACLE_H_
#define QPS_FUZZ_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/guarded_planner.h"
#include "core/planner_backends.h"
#include "exec/executor.h"
#include "fuzz/signature.h"
#include "query/query.h"
#include "util/status.h"

namespace qps {
namespace fuzz {

enum class ViolationKind {
  kPlanFailure,     ///< a backend failed on a valid, connected query
  kInvalidPlan,     ///< OK status but ValidatePlan rejected the plan
  kNonFiniteStats,  ///< NaN/inf escaped in plan or result stats
  kExecFailure,     ///< a returned plan failed to execute (beyond row caps)
  kResultMismatch,  ///< backends disagree on the result cardinality
};

const char* ViolationKindName(ViolationKind kind);

struct OracleViolation {
  ViolationKind kind;
  std::string backend;
  std::string detail;

  std::string ToString() const;
};

/// Everything one differential run observed.
struct OracleReport {
  std::vector<BackendProbe> probes;
  std::vector<OracleViolation> violations;
  uint64_t signature = 0;  ///< CombinedSignature(probes)

  bool ok() const { return violations.empty(); }
  bool Has(ViolationKind kind) const;
};

struct OracleOptions {
  /// Backends to differentiate, in fixed order (signature stability).
  std::vector<std::string> backends = {"baseline", "neural", "guarded"};
  /// Planner configuration shared by the neural and guarded backends.
  /// Defaults pin determinism: rollout-capped MCTS with an effectively
  /// unlimited time budget, so wall-clock never decides a plan.
  core::GuardedOptions guarded;
  /// Row/time caps for the differential executions; exceeding them is an
  /// accepted outcome (kResourceExhausted), not a violation.
  exec::ExecOptions exec;
  /// Execute returned plans and compare root cardinalities.
  bool execute = true;

  OracleOptions() {
    guarded.hybrid.neural_min_relations = 3;
    guarded.hybrid.mcts.time_budget_ms = 1e9;
    guarded.hybrid.mcts.max_rollouts = 12;
    guarded.hybrid.mcts.eval_batch = 4;
    exec.max_intermediate_rows = 200'000;
  }
};

/// Runs queries through all configured backends and checks the contract.
/// Fresh planner instances are created per Check() call so every run is
/// independent and deterministic for a fixed (query, seed).
class DifferentialOracle {
 public:
  DifferentialOracle(const storage::Database& db,
                     const core::QpSeeker* model,
                     const optimizer::Planner* baseline,
                     OracleOptions options = {});

  /// One differential run. `seed` pins the per-request MCTS randomness
  /// (must be non-zero to override backend defaults deterministically).
  OracleReport Check(const query::Query& q, uint64_t seed);

  const OracleOptions& options() const { return options_; }

 private:
  const storage::Database& db_;
  const core::QpSeeker* model_;
  const optimizer::Planner* baseline_;
  OracleOptions options_;
};

}  // namespace fuzz
}  // namespace qps

#endif  // QPS_FUZZ_ORACLE_H_
