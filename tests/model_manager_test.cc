// Copyright 2026 The QPSeeker Authors
//
// Validated hot-reload tests: a good checkpoint passes the canary gate and
// swaps atomically; corrupt checkpoints, q-error regressions, and failing
// swap hooks are rejected with the live model untouched and the failure
// counted; and (the TSan target) reloads racing concurrent serving
// traffic never produce a torn model or a failed request.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "query/parser.h"
#include "serve/model_manager.h"
#include "one_tenant.h"
#include "storage/schemas.h"
#include "util/metrics.h"

namespace qps {
namespace serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ModelManagerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM b, c WHERE c.c1 = b.id;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
    };
    for (const char* sql : sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 4;
    Rng drng(2);
    dataset_ = new sampling::QepDataset(
        sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value());

    model_ = NewModel().release();
    core::TrainOptions topts;
    topts.epochs = 6;
    model_->Train(*dataset_, topts);

    checkpoint_ = TempPath("live_model.ckpt");
    std::remove(checkpoint_.c_str());
    ASSERT_TRUE(model_->Save(checkpoint_).ok());
  }

  static void TearDownTestSuite() {
    delete model_;
    delete dataset_;
    delete baseline_;
    delete stats_;
    delete db_;
  }

  static std::unique_ptr<core::QpSeeker> NewModel() {
    return std::make_unique<core::QpSeeker>(
        *db_, *stats_, core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  }

  /// The standard factory: fresh instance + hardened load.
  static ModelFactory Factory() {
    return [](const std::string& path) -> StatusOr<std::shared_ptr<core::QpSeeker>> {
      auto candidate = std::shared_ptr<core::QpSeeker>(NewModel().release());
      QPS_RETURN_IF_ERROR(candidate->Load(path));
      return candidate;
    };
  }

  /// Canary cases from the labeled training set (plans carry actuals).
  static std::vector<CanaryCase> Canaries(size_t n = 3) {
    std::vector<CanaryCase> out;
    for (size_t i = 0; i < n && i < dataset_->qeps.size(); ++i) {
      CanaryCase c;
      c.query = dataset_->queries[static_cast<size_t>(dataset_->qeps[i].query_id)];
      c.plan = dataset_->qeps[i].plan->Clone();
      out.push_back(std::move(c));
    }
    return out;
  }

  static std::shared_ptr<core::QpSeeker> SharedLive() {
    // A separate serving copy so tests can hand ownership to a manager
    // without disturbing the suite-wide model_.
    auto copy = std::shared_ptr<core::QpSeeker>(NewModel().release());
    EXPECT_TRUE(copy->Load(checkpoint_).ok());
    return copy;
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static sampling::QepDataset* dataset_;
  static core::QpSeeker* model_;
  static std::string checkpoint_;
};

storage::Database* ModelManagerTest::db_ = nullptr;
stats::DatabaseStats* ModelManagerTest::stats_ = nullptr;
optimizer::Planner* ModelManagerTest::baseline_ = nullptr;
sampling::QepDataset* ModelManagerTest::dataset_ = nullptr;
core::QpSeeker* ModelManagerTest::model_ = nullptr;
std::string ModelManagerTest::checkpoint_;

TEST_F(ModelManagerTest, GoodCheckpointPassesGateAndSwaps) {
  ModelManager manager(SharedLive(), Factory());
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();

  std::atomic<int> hook_calls{0};
  manager.SetSwapHook([&](std::shared_ptr<const core::QpSeeker> m) -> Status {
    EXPECT_NE(m, nullptr);
    hook_calls.fetch_add(1);
    return Status::OK();
  });

  Status st = manager.Reload(checkpoint_);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_NE(manager.live(), before);  // new instance serving
  const auto ms = manager.stats();
  EXPECT_EQ(ms.reloads, 1);
  EXPECT_EQ(ms.reload_failures, 0);
  EXPECT_GT(ms.live_qerror, 0.0);
}

TEST_F(ModelManagerTest, CorruptCheckpointRejectedLiveUntouched) {
  const std::string bad = TempPath("corrupt_reload.ckpt");
  {
    std::ifstream in(checkpoint_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[bytes.size() / 3] ^= 0x10;
    std::ofstream out(bad, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ModelManager manager(SharedLive(), Factory());
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();
  bool hook_called = false;
  manager.SetSwapHook([&](std::shared_ptr<const core::QpSeeker>) -> Status {
    hook_called = true;
    return Status::OK();
  });

  EXPECT_FALSE(manager.Reload(bad).ok());
  EXPECT_FALSE(hook_called);
  EXPECT_EQ(manager.live(), before);
  EXPECT_EQ(manager.stats().reload_failures, 1);
  EXPECT_EQ(manager.stats().reloads, 0);
}

TEST_F(ModelManagerTest, QErrorGateRejectsRegressedCandidate) {
  // An impossible gate: any candidate's q-error (>= 1 by construction)
  // exceeds ratio * baseline, standing in for a genuinely regressed model.
  ModelManagerOptions opts;
  opts.max_qerror_ratio = 1e-9;
  ModelManager manager(SharedLive(), Factory(), opts);
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();

  Status st = manager.Reload(checkpoint_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("q-error"), std::string::npos) << st.ToString();
  EXPECT_EQ(manager.live(), before);
  EXPECT_EQ(manager.stats().reload_failures, 1);
  EXPECT_GT(manager.stats().last_candidate_qerror, 0.0);
}

TEST_F(ModelManagerTest, QuantizedCandidatePassesGateAndSwaps) {
  // An int8 checkpoint hot-loads as a canary candidate: the probe runs
  // through the quantized forward path, and with the default gate the
  // (near-identical) plan quality passes and the candidate swaps in.
  const std::string qpath = TempPath("quant_candidate.ckpt");
  std::remove(qpath.c_str());
  ASSERT_TRUE(model_->SaveQuantized(qpath).ok());

  auto* pass =
      metrics::Registry::Global().GetCounter("qps.model.quant_gate.pass");
  const int64_t pass_before = pass->value();

  ModelManager manager(SharedLive(), Factory());
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();

  Status st = manager.Reload(qpath);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_NE(manager.live(), before);
  EXPECT_TRUE(manager.live()->quantized());
  const auto ms = manager.stats();
  EXPECT_EQ(ms.reloads, 1);
  EXPECT_EQ(ms.reload_failures, 0);
  EXPECT_TRUE(ms.last_candidate_quantized);
  EXPECT_EQ(pass->value(), pass_before + 1);
  std::remove(qpath.c_str());
}

TEST_F(ModelManagerTest, DegradedQuantizedCandidateRolledBack) {
  // Same impossible gate as QErrorGateRejectsRegressedCandidate, but with
  // a quantized candidate: the quant gate records the failure and the f32
  // live model keeps serving.
  const std::string qpath = TempPath("quant_degraded.ckpt");
  std::remove(qpath.c_str());
  ASSERT_TRUE(model_->SaveQuantized(qpath).ok());

  auto* fail =
      metrics::Registry::Global().GetCounter("qps.model.quant_gate.fail");
  const int64_t fail_before = fail->value();

  ModelManagerOptions opts;
  opts.max_qerror_ratio = 1e-9;
  ModelManager manager(SharedLive(), Factory(), opts);
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();

  Status st = manager.Reload(qpath);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("q-error"), std::string::npos) << st.ToString();
  EXPECT_EQ(manager.live(), before);     // rollback: f32 model still serving
  EXPECT_FALSE(manager.live()->quantized());
  const auto ms = manager.stats();
  EXPECT_EQ(ms.reload_failures, 1);
  EXPECT_TRUE(ms.last_candidate_quantized);
  EXPECT_EQ(fail->value(), fail_before + 1);
  std::remove(qpath.c_str());
}

TEST_F(ModelManagerTest, FailingSwapHookCountsAsFailedReload) {
  ModelManager manager(SharedLive(), Factory());
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  const auto before = manager.live();
  manager.SetSwapHook([](std::shared_ptr<const core::QpSeeker>) -> Status {
    return Status::Internal("service refused the swap");
  });

  EXPECT_FALSE(manager.Reload(checkpoint_).ok());
  EXPECT_EQ(manager.live(), before);
  EXPECT_EQ(manager.stats().reload_failures, 1);
}

TEST_F(ModelManagerTest, MissingFileRejected) {
  ModelManager manager(SharedLive(), Factory());
  EXPECT_FALSE(manager.Reload(TempPath("does_not_exist.ckpt")).ok());
  EXPECT_EQ(manager.stats().reload_failures, 1);
}

TEST_F(ModelManagerTest, ReloadFailureVisibleInMetricsRegistry) {
  auto* counter =
      metrics::Registry::Global().GetCounter("qps.model.reload_failures");
  const int64_t before = counter->value();
  ModelManager manager(SharedLive(), Factory());
  EXPECT_FALSE(manager.Reload(TempPath("nope.ckpt")).ok());
  EXPECT_EQ(counter->value(), before + 1);
}

TEST_F(ModelManagerTest, SetCanariesRacingReloadKeepsProbesSafe) {
  // Reload's validation probe snapshots the canary set; a concurrent
  // SetCanaries replacing that set (destroying the old cases) must not pull
  // the probe's data out from under it. TSan/ASan guard the old raw-pointer
  // failure mode here. The gate is opened wide: baseline and probe may see
  // different canary subsets, and this test is about memory safety only.
  ModelManagerOptions opts;
  opts.max_qerror_ratio = 1e12;
  ModelManager manager(SharedLive(), Factory(), opts);
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());

  std::atomic<bool> stop{false};
  std::thread canary_thread([&] {
    size_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status st = manager.SetCanaries(Canaries(1 + (n++ % 3)));
      EXPECT_TRUE(st.ok()) << st.ToString();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 8; ++i) {
    Status st = manager.Reload(checkpoint_);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  stop.store(true);
  canary_thread.join();
  EXPECT_EQ(manager.stats().reloads, 8);
  EXPECT_EQ(manager.stats().reload_failures, 0);
}

/// Rollout-capped MCTS so planning terminates deterministically fast.
core::GuardedOptions Gopts() {
  core::GuardedOptions gopts;
  gopts.hybrid.neural_min_relations = 3;
  gopts.hybrid.mcts.time_budget_ms = 1e9;
  gopts.hybrid.mcts.max_rollouts = 16;
  gopts.hybrid.mcts.eval_batch = 4;
  gopts.hybrid.mcts.seed = 5;
  return gopts;
}

TEST_F(ModelManagerTest, HotReloadUnderConcurrentTraffic) {
  ShardedPlanServiceOptions sopts;
  sopts.workers_per_shard = 4;
  PlanServiceDeps deps;
  deps.planner_name = "guarded";
  deps.model = std::shared_ptr<const core::QpSeeker>(
      std::shared_ptr<const core::QpSeeker>(), model_);
  deps.baseline = baseline_;
  deps.guard_options = Gopts();
  auto service = OneTenant::Make(std::move(deps), sopts, {256, false});
  ASSERT_NE(service, nullptr);

  ModelManager manager(SharedLive(), Factory());
  ASSERT_TRUE(manager.SetCanaries(Canaries()).ok());
  manager.SetSwapHook([&](std::shared_ptr<const core::QpSeeker> m) {
    return service->SwapModel(std::move(m));
  });

  const char* sqls[] = {
      "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
      "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 7;",
  };
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    // Keep swapping validated models in while clients hammer the service.
    while (!stop.load(std::memory_order_relaxed)) {
      Status st = manager.Reload(checkpoint_);
      EXPECT_TRUE(st.ok()) << st.ToString();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        PlanRequest request;
        request.query = query::ParseSql(sqls[(c + i) % 2], *db_).value();
        request.seed = static_cast<uint64_t>(c * kPerClient + i);
        auto fut = service->Submit(std::move(request));
        auto result = fut.get();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_NE(result->plan, nullptr);
        ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  reloader.join();

  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_GE(manager.stats().reloads, 1);
  EXPECT_EQ(manager.stats().reload_failures, 0);
  const auto stats = service->stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.errors, 0);
}

}  // namespace
}  // namespace serve
}  // namespace qps
