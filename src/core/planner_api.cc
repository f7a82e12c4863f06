// Copyright 2026 The QPSeeker Authors

#include "core/planner_api.h"

#include "util/string_util.h"

namespace qps {
namespace core {

const char* PlanStageName(PlanStage stage) {
  switch (stage) {
    case PlanStage::kNeural:
      return "neural";
    case PlanStage::kGreedy:
      return "greedy";
    case PlanStage::kTraditional:
      return "traditional";
  }
  return "?";
}

std::string GuardStats::ToString() const {
  return StrFormat(
      "requests=%lld neural=%lld/%lld (invalid=%lld nan=%lld deadline=%lld "
      "error=%lld) greedy=%lld/%lld traditional=%lld/%lld circuit "
      "opens=%lld closes=%lld short_circuits=%lld",
      static_cast<long long>(requests), static_cast<long long>(neural_success),
      static_cast<long long>(neural_attempts),
      static_cast<long long>(neural_invalid_plan), static_cast<long long>(neural_nan),
      static_cast<long long>(neural_deadline), static_cast<long long>(neural_error),
      static_cast<long long>(greedy_success), static_cast<long long>(greedy_attempts),
      static_cast<long long>(traditional_success),
      static_cast<long long>(traditional_attempts),
      static_cast<long long>(circuit_opens), static_cast<long long>(circuit_closes),
      static_cast<long long>(circuit_short_circuits));
}

Status CheckPlannable(const query::Query& q) {
  if (q.num_relations() == 0) return Status::InvalidArgument("empty query");
  QPS_RETURN_IF_ERROR(q.ValidateStructure());
  if (q.num_relations() > 1 && !q.IsConnected()) {
    return Status::NotImplemented("cross products are not supported");
  }
  return Status::OK();
}

}  // namespace core
}  // namespace qps
