// Copyright 2026 The QPSeeker Authors
//
// Adapters that surface the two "plain" planning backends through the
// unified core::Planner interface (planner_api.h): the Selinger-style DP
// baseline and raw MCTS over the learned cost model. The ladder planner,
// GuardedPlanner, implements the interface natively; MakePlanner constructs
// any of the three by name so callers (qpsql, the plan service, the
// conformance suite) never reference a concrete backend type.

#ifndef QPS_CORE_PLANNER_BACKENDS_H_
#define QPS_CORE_PLANNER_BACKENDS_H_

#include <memory>
#include <string>

#include "core/guarded_planner.h"
#include "core/mcts.h"
#include "core/planner_api.h"
#include "optimizer/planner.h"

namespace qps {
namespace core {

/// The traditional DP planner behind the unified interface. Ignores the
/// request deadline (DP planning is microseconds) and never consults the
/// model, so every result reports PlanStage::kTraditional.
class BaselinePlanner : public Planner {
 public:
  explicit BaselinePlanner(const optimizer::Planner* baseline)
      : baseline_(baseline) {}

  const char* name() const override { return "baseline"; }

  StatusOr<PlanResult> Plan(const query::Query& q,
                            const PlanRequestOptions& ropts) const override;

 private:
  const optimizer::Planner* baseline_;
};

/// Raw MCTS planning behind the unified interface: every query goes to the
/// learned planner regardless of complexity (the paper's main experiment).
class MctsPlanner : public Planner {
 public:
  MctsPlanner(const QpSeeker* model, MctsOptions options = {})
      : model_(model), options_(options) {}

  const char* name() const override { return "neural"; }

  StatusOr<PlanResult> Plan(const query::Query& q,
                            const PlanRequestOptions& ropts) const override;

 private:
  const QpSeeker* model_;
  MctsOptions options_;
};

/// Constructs a backend by name: "baseline", "neural", or "guarded".
/// `gopts` carries the routing/MCTS/guard-rail configuration; the baseline
/// backend uses none of it, the neural backend only gopts.hybrid.mcts. Returns kInvalidArgument for unknown names.
/// `model` may be null only for "baseline".
StatusOr<std::unique_ptr<Planner>> MakePlanner(
    const std::string& name, const QpSeeker* model,
    const optimizer::Planner* baseline, const GuardedOptions& gopts = {});

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_PLANNER_BACKENDS_H_
