// Copyright 2026 The QPSeeker Authors
//
// Domain example: a JOB-style analytical session on the IMDb-like
// database. Trains QPSeeker on a sampled multi-join workload, then plans
// and executes three hand-written analytical queries, printing EXPLAIN
// trees, the QPAttention scores over plan nodes (which operators dominate
// the estimate), and a side-by-side with the baseline optimizer.
//
// Run: ./build/examples/imdb_planner

#include <cstdio>

#include "core/mcts.h"
#include "core/qpseeker.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "query/parser.h"
#include "storage/schemas.h"

using namespace qps;

int main() {
  Rng rng(11);
  auto db = storage::BuildDatabase(storage::ImdbLikeSpec(), 1200, &rng).value();
  auto stats = stats::DatabaseStats::Analyze(*db);
  std::printf("IMDb-like database: %d tables, %lld rows\n\n", db->num_tables(),
              static_cast<long long>(db->TotalRows()));

  // Train on a sampled multi-join workload.
  eval::WorkloadOptions wo;
  wo.num_queries = 60;
  wo.min_joins = 1;
  wo.max_joins = 4;
  wo.num_templates = 20;
  Rng wrng(12);
  auto queries = eval::GenerateWorkload(*db, wo, &wrng);
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.max_plans_per_query = 6;
  Rng drng(13);
  auto dataset = sampling::BuildQepDataset(*db, *stats, queries, dopts, &drng).value();
  std::printf("training on %zu QEPs sampled from %zu queries...\n",
              dataset.qeps.size(), dataset.queries.size());

  core::QpSeekerConfig cfg = core::QpSeekerConfig::ForScale(Scale::kSmoke);
  core::QpSeeker seeker(*db, *stats, cfg, 3);
  core::TrainOptions topts;
  topts.epochs = 35;
  topts.learning_rate = 2e-3f;
  auto report = seeker.Train(dataset, topts);
  std::printf("done (%.1fs, %lld params)\n\n", report.train_seconds,
              static_cast<long long>(report.num_parameters));

  const char* analytics[] = {
      // "Movies by production year with their companies."
      "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn "
      "WHERE mc.movie_id = t.id AND mc.company_id = cn.id "
      "AND t.production_year > 100;",
      // "Cast of highly-ranked movies with role metadata."
      "SELECT COUNT(*) FROM title t, cast_info ci, role_type rt, name n "
      "WHERE ci.movie_id = t.id AND ci.role_id = rt.id AND ci.person_id = n.id "
      "AND t.season_nr <= 2;",
      // "Keyworded movies with extra info rows."
      "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, movie_info mi "
      "WHERE mk.movie_id = t.id AND mk.keyword_id = k.id AND mi.movie_id = t.id "
      "AND k.keyword_hash = 3 AND mi.info_hash <= 50;",
  };

  optimizer::Planner baseline(*db, *stats);
  exec::Executor ex(*db);
  for (const char* sql : analytics) {
    auto q = query::ParseSql(sql, *db);
    if (!q.ok()) {
      std::fprintf(stderr, "parse: %s\n", q.status().ToString().c_str());
      return 1;
    }
    std::printf("----------------------------------------------------------\n");
    std::printf("query: %s\n", q->ToSql(*db).c_str());

    core::MctsOptions mopts;
    mopts.time_budget_ms = 200.0;
    auto mcts = core::MctsPlan(seeker, *q, mopts);
    if (!mcts.ok()) {
      std::fprintf(stderr, "mcts: %s\n", mcts.status().ToString().c_str());
      return 1;
    }
    auto pg = baseline.Plan(*q);

    auto run = [&](query::PlanNode* plan) {
      auto card = ex.Execute(*q, plan);
      return card.ok() ? plan->actual.runtime_ms : -1.0;
    };
    const double t_qps = run(mcts->plan.get());
    const double t_pg = run(pg->get());

    std::printf("\nQPSeeker (MCTS, %d plans):\n%s", mcts->plans_evaluated,
                mcts->plan->ToString(*db, *q, true).c_str());
    // Which plan nodes did QPAttention weight the most?
    const nn::Tensor scores = seeker.AttentionScores(*q, *mcts->plan);
    if (scores.size() > 0) {
      std::printf("QPAttention (head 0) scores over nodes:");
      for (int64_t j = 0; j < scores.cols(); ++j) {
        std::printf(" %.2f", scores(0, j));
      }
      std::printf("\n");
    }
    std::printf("\nBaseline:\n%s", (*pg)->ToString(*db, *q, true).c_str());
    std::printf("\nexecution: QPSeeker %.2f ms vs baseline %.2f ms\n\n", t_qps, t_pg);
  }
  return 0;
}
