// Copyright 2026 The QPSeeker Authors
//
// Extension bench (paper §7.3 future work): the hybrid optimizer. Compares
// total workload execution time of pure-PostgreSQL, pure-neural
// (QPSeeker+MCTS for every query), and the hybrid router (the "guarded"
// ladder planner) across complexity thresholds, on a mixed IMDb workload spanning 0-5 joins. Also reports
// the bushy-sampling extension's effect on prediction quality.

#include <cstdio>

#include "bench/harness.h"
#include "core/planner_backends.h"
#include "util/logging.h"

namespace qps {
namespace bench {
namespace {

int Run() {
  Env env = MakeEnvFromEnvVar();
  std::printf("=== Extension: hybrid optimizer + bushy sampling (scale=%s) ===\n\n",
              ScaleName(env.scale));

  // Mixed-complexity workload over IMDb.
  eval::WorkloadOptions wo;
  wo.num_queries = env.scale == Scale::kSmoke ? 30 : 90;
  wo.min_joins = 0;
  wo.max_joins = 5;
  wo.num_templates = wo.num_queries / 3;
  Rng wrng(661);
  auto queries = eval::GenerateWorkload(*env.imdb, wo, &wrng);

  // Train QPSeeker on a sampled dataset over the same distribution.
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.max_plans_per_query = env.scale == Scale::kSmoke ? 5 : 8;
  Rng drng(662);
  auto ds = sampling::BuildQepDataset(*env.imdb, *env.imdb_stats, queries, dopts,
                                      &drng);
  QPS_CHECK(ds.ok());
  core::QpSeekerConfig cfg = core::QpSeekerConfig::ForScale(env.scale);
  core::QpSeeker seeker(*env.imdb, *env.imdb_stats, cfg, 1234);
  seeker.Train(*ds, DefaultTrainOptions(env.scale));

  // Fresh evaluation workload (same distribution, different seed).
  Rng erng(663);
  auto eval_queries = eval::GenerateWorkload(*env.imdb, wo, &erng);

  optimizer::Planner pg(*env.imdb, *env.imdb_stats);
  auto pg_run = RunWithPostgres(&pg, *env.imdb, eval_queries);
  auto neural_run = RunWithQpSeeker(seeker, *env.imdb, eval_queries);

  std::printf("%-28s %14s %10s\n", "strategy", "workload ms", "fails");
  std::printf("%-28s %14.1f %10d\n", "pure PostgreSQL", pg_run.total_ms,
              pg_run.failures);
  std::printf("%-28s %14.1f %10d\n", "pure neural (MCTS all)", neural_run.total_ms,
              neural_run.failures);

  for (int threshold : {3, 4, 5}) {
    core::GuardedOptions gopts;
    gopts.hybrid.neural_min_relations = threshold;
    gopts.hybrid.mcts.time_budget_ms = 200.0;
    auto hybrid = core::MakePlanner("guarded", &seeker, &pg, gopts).value();
    exec::Executor ex(*env.imdb);
    double total = 0.0;
    int fails = 0, routed = 0;
    for (size_t i = 0; i < eval_queries.size(); ++i) {
      const auto& q = eval_queries[i];
      auto result = hybrid->Plan(q, {});
      if (!result.ok()) {
        ++fails;
        continue;
      }
      routed += result->used_neural;
      auto card = ex.Execute(q, result->plan.get());
      total += card.ok() ? result->plan->actual.runtime_ms
                         : ex.last_counters().RuntimeMs();
      fails += card.ok() ? 0 : 1;
    }
    std::printf("%-19s (>=%d rel) %14.1f %10d   (%d routed neural)\n", "hybrid",
                threshold, total, fails, routed);
  }

  // --- bushy-sampling extension: prediction quality. -----------------------
  std::printf("\n-- bushy sampling extension (training-set diversity) --\n");
  for (double bushy : {0.0, 0.3}) {
    sampling::DatasetOptions bopts = dopts;
    bopts.sampler.bushy_fraction = bushy;
    Rng brng(664);
    auto bds = sampling::BuildQepDataset(*env.imdb, *env.imdb_stats, queries, bopts,
                                         &brng);
    QPS_CHECK(bds.ok());
    core::QpSeeker model(*env.imdb, *env.imdb_stats, cfg, 1234);
    model.Train(*bds, DefaultTrainOptions(env.scale));
    // Evaluate runtime q-error on the *other* dataset's QEPs (cross-set).
    std::vector<double> errs;
    for (const auto& qep : ds->qeps) {
      const auto& q = ds->queries[static_cast<size_t>(qep.query_id)];
      errs.push_back(eval::QError(model.PredictPlan(q, *qep.plan).runtime_ms,
                                  qep.plan->actual.runtime_ms, 0.1));
    }
    const auto p = eval::ComputePercentiles(errs);
    std::printf("bushy_fraction %.1f: %zu QEPs, runtime q-err p50 %.3f p90 %.2f\n",
                bushy, bds->qeps.size(), p.p50, p.p90);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qps

int main() {
  const int rc = qps::bench::Run();
  qps::bench::EmitMetricsSnapshot("extension_hybrid");
  return rc;
}
