// Copyright 2026 The QPSeeker Authors
//
// Golden serving plans: a fixed set of (query, seed) pairs, planned by the
// "neural" backend through ShardedPlanService, must render the plans
// committed in tests/corpus/golden/serve_plans.txt in every cell of a
// small serving matrix:
//
//   - workers_per_shard in {1, 4};
//   - two tenants sharing one model instance vs. one instance each (the
//     second instance is a checkpoint round-trip of the first);
//   - clean vs. retried: one injected mcts.rollout kIOError fails one
//     request's first attempt, and max_retries = 1 replans it.
//
// Plans are a function of (query, seed) alone, so every cell renders the
// same bytes. The cells are first compared with each other, then with the
// file; a change to planning shows up as a diff of that file.
//
// Regenerating the file: run the test with QPS_REGEN_GOLDEN_SERVE=1 in the
// environment, e.g.
//
//   QPS_REGEN_GOLDEN_SERVE=1 ./build/tests/serve_golden_test
//
// It then writes the clean single-worker cell to the file and reports
// itself as skipped.
// Regenerate only on purpose, when planning itself changes.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "serve/sharded_service.h"
#include "storage/schemas.h"
#include "util/fault.h"

#ifndef QPS_GOLDEN_DIR
#error "QPS_GOLDEN_DIR must point at tests/corpus/golden"
#endif

namespace qps {
namespace serve {
namespace {

constexpr const char* kGoldenFile = QPS_GOLDEN_DIR "/serve_plans.txt";

const char* const kSqls[] = {
    "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
    "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
    "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id AND "
    "a.a2 >= 2;",
    "SELECT COUNT(*) FROM a, b, c, b b2 WHERE b.b1 = a.id AND c.c1 = b.id "
    "AND b2.b1 = a.id;",
};
const uint64_t kSeeds[] = {11, 12, 13};

/// Two tenant ids the two-shard ring places on different shards.
const char* const kTenants[] = {"golden_a", "golden_b"};

struct Cell {
  int workers_per_shard;
  bool shared_model;
  bool retried;

  std::string Name() const {
    return "workers=" + std::to_string(workers_per_shard) +
           (shared_model ? " shared-model" : " model-per-tenant") +
           (retried ? " retried" : " clean");
  }
};

class ServeGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* train_sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
    };
    for (const char* sql : train_sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 4;
    Rng drng(2);
    auto ds = sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value();
    const auto config = core::QpSeekerConfig::ForScale(Scale::kSmoke);
    auto model = std::make_shared<core::QpSeeker>(*db_, *stats_, config, 3);
    core::TrainOptions topts;
    topts.epochs = 4;
    model->Train(ds, topts);

    // The second instance is a byte-exact copy through a checkpoint.
    const std::string path = ::testing::TempDir() + "serve_golden_model.qps";
    ASSERT_TRUE(model->Save(path).ok());
    auto copy = std::make_shared<core::QpSeeker>(*db_, *stats_, config, 3);
    ASSERT_TRUE(copy->Load(path).ok());
    std::remove(path.c_str());
    model_ = new std::shared_ptr<const core::QpSeeker>(std::move(model));
    copy_ = new std::shared_ptr<const core::QpSeeker>(std::move(copy));
  }

  static void TearDownTestSuite() {
    delete copy_;
    delete model_;
    delete baseline_;
    delete stats_;
    delete db_;
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  /// Rollout-capped MCTS, never wall-clock bound.
  static core::GuardedOptions Gopts() {
    core::GuardedOptions gopts;
    gopts.hybrid.neural_min_relations = 3;
    gopts.hybrid.mcts.time_budget_ms = 1e9;
    gopts.hybrid.mcts.max_rollouts = 24;
    gopts.hybrid.mcts.eval_batch = 4;
    gopts.hybrid.mcts.seed = 5;
    return gopts;
  }

  /// Runs every (query, seed) pair through both tenants of one cell and
  /// returns each tenant's rendered plans, one line per pair.
  static std::vector<std::string> RunCell(const Cell& cell) {
    ShardedPlanServiceOptions options;
    options.shards = 2;
    options.workers_per_shard = cell.workers_per_shard;
    options.retry.max_retries = cell.retried ? 1 : 0;
    options.retry.backoff_base_ms = 0.1;
    auto service = ShardedPlanService::Create(options).value();
    EXPECT_NE(service->ShardOf(kTenants[0]), service->ShardOf(kTenants[1]));
    for (int t = 0; t < 2; ++t) {
      TenantSpec spec;
      spec.tenant_id = kTenants[t];
      spec.deps.planner_name = "neural";
      spec.deps.model = (cell.shared_model || t == 0) ? *model_ : *copy_;
      spec.deps.baseline = baseline_;
      spec.deps.guard_options = Gopts();
      spec.quota.max_pending = 64;
      EXPECT_TRUE(service->AddTenant(std::move(spec)).ok());
    }

    if (cell.retried) {
      fault::FaultSpec fault;
      fault.code = StatusCode::kIOError;
      fault.message = "injected transient";
      fault.trigger_on_hit = 1;
      fault::FaultInjector::Global().Arm("mcts.rollout", fault);
    }

    // Everything in flight at once: the tenants' evaluations interleave on
    // the shard pools and fuse in their rendezvous.
    std::vector<query::Query> queries;
    for (const char* sql : kSqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    std::vector<std::future<StatusOr<core::PlanResult>>> futures[2];
    for (int t = 0; t < 2; ++t) {
      for (const query::Query& q : queries) {
        for (uint64_t seed : kSeeds) {
          PlanRequest request;
          request.query = q;
          request.tenant_id = kTenants[t];
          request.seed = seed;
          futures[t].push_back(service->Submit(std::move(request)));
        }
      }
    }

    std::vector<std::string> rendered;
    for (int t = 0; t < 2; ++t) {
      std::ostringstream out;
      size_t i = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        for (uint64_t seed : kSeeds) {
          auto result = futures[t][i++].get();
          EXPECT_TRUE(result.ok())
              << cell.Name() << ": " << result.status().ToString();
          out << "q" << qi << " seed=" << seed << " ";
          if (result.ok()) {
            out << result->plan->ToString(*db_, queries[qi]);
          } else {
            out << "ERROR " << result.status().ToString();
          }
          out << "\n";
        }
      }
      rendered.push_back(out.str());
    }

    if (cell.retried) {
      // Exactly one attempt failed and was replanned.
      EXPECT_EQ(fault::FaultInjector::Global().Triggers("mcts.rollout"), 1)
          << cell.Name();
      int64_t retries = 0, successes = 0;
      for (const char* id : kTenants) {
        const PlanService::Stats st = service->TenantStats(id).value();
        retries += st.retry_attempts;
        successes += st.retry_successes;
      }
      EXPECT_EQ(retries, 1) << cell.Name();
      EXPECT_EQ(successes, 1) << cell.Name();
      fault::FaultInjector::Global().DisarmAll();
    }
    return rendered;
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static std::shared_ptr<const core::QpSeeker>* model_;
  static std::shared_ptr<const core::QpSeeker>* copy_;
};

storage::Database* ServeGoldenTest::db_ = nullptr;
stats::DatabaseStats* ServeGoldenTest::stats_ = nullptr;
optimizer::Planner* ServeGoldenTest::baseline_ = nullptr;
std::shared_ptr<const core::QpSeeker>* ServeGoldenTest::model_ = nullptr;
std::shared_ptr<const core::QpSeeker>* ServeGoldenTest::copy_ = nullptr;

TEST_F(ServeGoldenTest, EveryCellRendersTheGoldenPlans) {
  std::vector<Cell> cells;
  for (int workers : {1, 4}) {
    for (bool shared : {true, false}) {
      for (bool retried : {false, true}) {
        cells.push_back({workers, shared, retried});
      }
    }
  }

  // The cells agree with each other, tenant by tenant.
  const std::vector<std::string> reference = RunCell(cells[0]);
  ASSERT_EQ(reference.size(), 2u);
  EXPECT_EQ(reference[0], reference[1]) << cells[0].Name();
  for (size_t c = 1; c < cells.size(); ++c) {
    const std::vector<std::string> got = RunCell(cells[c]);
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t], reference[0])
          << cells[c].Name() << ", tenant " << kTenants[t];
    }
  }

  if (std::getenv("QPS_REGEN_GOLDEN_SERVE") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
    out << reference[0];
    GTEST_SKIP() << "regenerated " << kGoldenFile;
  }

  // And they agree with the committed file.
  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenFile
                         << " (QPS_REGEN_GOLDEN_SERVE=1 writes it)";
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(reference[0], golden.str())
      << "plans differ from " << kGoldenFile;
}

}  // namespace
}  // namespace serve
}  // namespace qps
