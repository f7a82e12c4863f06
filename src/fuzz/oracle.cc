// Copyright 2026 The QPSeeker Authors

#include "fuzz/oracle.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "query/plan.h"
#include "util/logging.h"

namespace qps {
namespace fuzz {

namespace {

// Canonical structural serialization of a plan, including operator choices
// and predicate assignment. Used as the execution-cache key: backends that
// chose the same physical plan are executed once.
void PlanKeyNode(const query::PlanNode& node, std::string* out) {
  out->push_back('(');
  out->append(std::to_string(static_cast<int>(node.op)));
  if (node.is_leaf()) {
    out->push_back('r');
    out->append(std::to_string(node.rel));
  } else {
    out->push_back('[');
    for (int p : node.join_preds) {
      out->append(std::to_string(p));
      out->push_back(',');
    }
    out->push_back(']');
    if (node.left != nullptr) PlanKeyNode(*node.left, out);
    if (node.right != nullptr) PlanKeyNode(*node.right, out);
  }
  out->push_back(')');
}

std::string PlanKey(const query::PlanNode& plan) {
  std::string key;
  key.reserve(64);
  PlanKeyNode(plan, &key);
  return key;
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kPlanFailure:
      return "plan-failure";
    case ViolationKind::kInvalidPlan:
      return "invalid-plan";
    case ViolationKind::kNonFiniteStats:
      return "non-finite-stats";
    case ViolationKind::kExecFailure:
      return "exec-failure";
    case ViolationKind::kResultMismatch:
      return "result-mismatch";
  }
  return "unknown";
}

std::string OracleViolation::ToString() const {
  std::string s = ViolationKindName(kind);
  s += " [";
  s += backend;
  s += "]: ";
  s += detail;
  return s;
}

bool OracleReport::Has(ViolationKind kind) const {
  for (const auto& v : violations) {
    if (v.kind == kind) return true;
  }
  return false;
}

DifferentialOracle::DifferentialOracle(const storage::Database& db,
                                       const core::QpSeeker* model,
                                       const optimizer::Planner* baseline,
                                       OracleOptions options)
    : db_(db), model_(model), baseline_(baseline),
      options_(std::move(options)) {}

OracleReport DifferentialOracle::Check(const query::Query& q, uint64_t seed) {
  OracleReport report;
  report.probes.reserve(options_.backends.size());

  struct ExecOutcome {
    StatusCode status = StatusCode::kOk;
    double rows = -1.0;
  };
  std::unordered_map<std::string, ExecOutcome> exec_cache;

  for (const std::string& name : options_.backends) {
    BackendProbe probe;
    probe.backend = name;

    // Fresh planner per run: no breaker or guard state leaks between
    // mutants, so a report is a pure function of (query, seed).
    auto planner_or =
        core::MakePlanner(name, model_, baseline_, options_.guarded);
    if (!planner_or.ok()) {
      probe.plan_status = planner_or.status().code();
      report.violations.push_back(
          {ViolationKind::kPlanFailure, name,
           "backend construction failed: " + planner_or.status().ToString()});
      report.probes.push_back(std::move(probe));
      continue;
    }
    std::unique_ptr<core::Planner> planner = std::move(planner_or).value();

    core::PlanRequestOptions ropts;
    ropts.seed = seed;
    auto result_or = planner->Plan(q, ropts);

    const core::GuardStats gs = planner->guard_stats();
    probe.guard_trips =
        gs.NeuralFailures() + gs.circuit_opens + gs.circuit_short_circuits;

    if (!result_or.ok()) {
      // The fuzzer only feeds valid, connected queries, so any backend
      // failure here breaches the unified planner contract.
      probe.plan_status = result_or.status().code();
      report.violations.push_back({ViolationKind::kPlanFailure, name,
                                   result_or.status().ToString()});
      report.probes.push_back(std::move(probe));
      continue;
    }
    core::PlanResult result = std::move(result_or).value();
    probe.stage = result.stage;
    probe.used_neural = result.used_neural;
    probe.deadline_hit = result.deadline_hit;
    probe.fallback_reason = result.fallback_reason;
    probe.estimated_rows = result.node_stats.cardinality;

    if (result.plan == nullptr) {
      report.violations.push_back({ViolationKind::kInvalidPlan, name,
                                   "OK status with a null plan"});
      report.probes.push_back(std::move(probe));
      continue;
    }
    query::PlanNode* plan = result.plan.get();

    const Status valid = query::ValidatePlan(q, *plan);
    if (!valid.ok()) {
      report.violations.push_back(
          {ViolationKind::kInvalidPlan, name, valid.ToString()});
    }

    probe.plan_shape_hash = AliasFreeShapeHash(q, *plan);
    plan->PostOrder([&probe](const query::PlanNode& n) {
      const int op = static_cast<int>(n.op);
      if (op >= 0 && op < query::kNumOpTypes) ++probe.op_counts[op];
    });

    if (!query::StatsAreFinite(result.node_stats)) {
      report.violations.push_back({ViolationKind::kNonFiniteStats, name,
                                   "non-finite root stats triple"});
    }
    bool nodes_finite = true;
    plan->PostOrder([&nodes_finite](const query::PlanNode& n) {
      if (!query::StatsAreFinite(n.estimated)) nodes_finite = false;
    });
    if (!nodes_finite) {
      report.violations.push_back({ViolationKind::kNonFiniteStats, name,
                                   "non-finite per-node estimate"});
    }

    if (options_.execute && valid.ok()) {
      const std::string key = PlanKey(*plan);
      auto it = exec_cache.find(key);
      ExecOutcome outcome;
      if (it != exec_cache.end()) {
        outcome = it->second;
      } else {
        exec::Executor executor(db_, options_.exec);
        auto rows_or = executor.Execute(q, plan);
        if (rows_or.ok()) {
          outcome.status = StatusCode::kOk;
          outcome.rows = rows_or.value();
        } else {
          outcome.status = rows_or.status().code();
        }
        exec_cache.emplace(key, outcome);
      }
      probe.exec_status = outcome.status;
      if (outcome.status == StatusCode::kOk) {
        probe.actual_rows = outcome.rows;
        probe.qerror_decile =
            QErrorDecile(probe.estimated_rows, outcome.rows);
      } else if (outcome.status != StatusCode::kResourceExhausted) {
        // Blowing the row/time caps is an accepted outcome for expensive
        // mutants; anything else means a validated plan failed to run.
        report.violations.push_back({ViolationKind::kExecFailure, name,
                                     "execution failed with status " +
                                         std::string(StatusCodeName(
                                             outcome.status))});
      }
    }

    report.probes.push_back(std::move(probe));
  }

  // Differential check: every backend that executed its plan to completion
  // must report the same root cardinality (the query has one answer).
  const BackendProbe* reference = nullptr;
  for (const auto& p : report.probes) {
    if (p.actual_rows < 0.0) continue;
    if (reference == nullptr) {
      reference = &p;
      continue;
    }
    if (p.actual_rows != reference->actual_rows) {
      report.violations.push_back(
          {ViolationKind::kResultMismatch, p.backend,
           p.backend + " returned " + std::to_string(p.actual_rows) +
               " rows but " + reference->backend + " returned " +
               std::to_string(reference->actual_rows)});
    }
  }

  report.signature = CombinedSignature(report.probes);
  return report;
}

}  // namespace fuzz
}  // namespace qps
