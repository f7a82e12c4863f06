// Copyright 2026 The QPSeeker Authors
//
// Domain example: the hybrid optimizer from the paper's discussion (§7.3)
// — "a neural planner kicks in for complex queries where traditional
// optimizers have trouble". Routes a mixed OLTP-ish/analytical workload
// between the DP baseline (simple queries) and QPSeeker+MCTS (complex
// queries), and reports where each path was taken and the end-to-end
// execution time against either pure strategy. The router is the
// "guarded" ladder planner; with a healthy model it never degrades.
//
// Run: ./build/examples/hybrid_optimizer

#include <cstdio>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "storage/schemas.h"

using namespace qps;

int main() {
  Rng rng(51);
  auto db = storage::BuildDatabase(storage::ImdbLikeSpec(), 800, &rng).value();
  auto stats = stats::DatabaseStats::Analyze(*db);

  // Train on a sampled mixed workload.
  eval::WorkloadOptions wo;
  wo.num_queries = 60;
  wo.min_joins = 0;
  wo.max_joins = 4;
  wo.num_templates = 20;
  Rng wrng(52);
  auto train_queries = eval::GenerateWorkload(*db, wo, &wrng);
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.max_plans_per_query = 6;
  Rng drng(53);
  auto dataset =
      sampling::BuildQepDataset(*db, *stats, train_queries, dopts, &drng).value();
  core::QpSeeker seeker(*db, *stats, core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  core::TrainOptions topts;
  topts.epochs = 35;
  topts.learning_rate = 2e-3f;
  seeker.Train(dataset, topts);
  std::printf("trained on %zu QEPs\n\n", dataset.qeps.size());

  // Evaluation workload mixing simple and complex queries.
  eval::WorkloadOptions eo;
  eo.num_queries = 30;
  eo.min_joins = 0;
  eo.max_joins = 5;
  Rng erng(54);
  auto eval_queries = eval::GenerateWorkload(*db, eo, &erng);

  optimizer::Planner baseline(*db, *stats);
  core::GuardedOptions gopts;
  gopts.hybrid.neural_min_relations = 4;
  gopts.hybrid.mcts.time_budget_ms = 150.0;
  auto hybrid = core::MakePlanner("guarded", &seeker, &baseline, gopts).value();

  exec::Executor ex(*db);
  auto execute = [&](const query::Query& q, query::PlanNode* plan) {
    auto card = ex.Execute(q, plan);
    return card.ok() ? plan->actual.runtime_ms : ex.last_counters().RuntimeMs();
  };

  double total_hybrid = 0.0, total_pg = 0.0, total_neural = 0.0;
  int neural_count = 0;
  std::printf("%-6s %6s %8s %12s %12s %12s\n", "query", "joins", "path",
              "hybrid ms", "PG ms", "neural ms");
  for (size_t i = 0; i < eval_queries.size(); ++i) {
    const auto& q = eval_queries[i];
    auto h = hybrid->Plan(q, {});
    auto p = baseline.Plan(q);
    core::MctsOptions mopts = gopts.hybrid.mcts;
    mopts.seed = 200 + i;
    auto n = core::MctsPlan(seeker, q, mopts);
    if (!h.ok() || !p.ok() || !n.ok()) continue;
    const double t_h = execute(q, h->plan.get());
    const double t_p = execute(q, p->get());
    const double t_n = execute(q, n->plan.get());
    total_hybrid += t_h;
    total_pg += t_p;
    total_neural += t_n;
    neural_count += h->used_neural;
    std::printf("%-6zu %6zu %8s %12.2f %12.2f %12.2f\n", i, q.joins.size(),
                h->used_neural ? "neural" : "DP", t_h, t_p, t_n);
  }
  std::printf("\nhybrid routed %d/%zu queries to the neural planner\n", neural_count,
              eval_queries.size());
  std::printf("totals: hybrid %.1f ms | pure PostgreSQL %.1f ms | pure neural "
              "%.1f ms\n",
              total_hybrid, total_pg, total_neural);
  return 0;
}
