// Copyright 2026 The QPSeeker Authors
//
// Tenant isolation tests for sharded multi-tenant serving: tenant table
// validation (ids, duplicates, unknown lookups), listed-iff-routed under
// racing add/remove, deterministic shard routing, kNotFound routing for
// unknown tenants, quota isolation between a hot and a cold tenant,
// remove-while-inflight quiescence, per-tenant model swaps, bit-identical
// plans vs. single-tenant serving, and one ledger per event (registry
// families equal the owners' sums). Runs in the tier-1 TSan set: the
// control-plane mutations race live Submits.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "one_tenant.h"
#include "obs/window.h"
#include "query/parser.h"
#include "serve/sharded_service.h"
#include "storage/schemas.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace qps {
namespace serve {
namespace {

class TenantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1);
    db_ = storage::BuildDatabase(storage::ToySpec(), 300, &rng).value().release();
    stats_ = stats::DatabaseStats::Analyze(*db_).release();
    baseline_ = new optimizer::Planner(*db_, *stats_);

    std::vector<query::Query> queries;
    const char* sqls[] = {
        "SELECT COUNT(*) FROM a, b WHERE b.b1 = a.id AND a.a2 < 5;",
        "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
    };
    for (const char* sql : sqls) {
      queries.push_back(query::ParseSql(sql, *db_).value());
    }
    sampling::DatasetOptions dopts;
    dopts.source = sampling::PlanSource::kSampled;
    dopts.sampler.max_plans_per_query = 4;
    Rng drng(2);
    auto ds =
        sampling::BuildQepDataset(*db_, *stats_, queries, dopts, &drng).value();
    auto* model = new core::QpSeeker(
        *db_, *stats_, core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
    core::TrainOptions topts;
    topts.epochs = 4;
    model->Train(ds, topts);
    model_ = model;
  }

  static void TearDownTestSuite() {
    delete model_;
    delete baseline_;
    delete stats_;
    delete db_;
  }

  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  static query::Query ThreeWay() {
    return query::ParseSql(
               "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND c.c1 = b.id;",
               *db_)
        .value();
  }

  /// Rollout-capped MCTS: plans are a pure function of (query, seed).
  static core::GuardedOptions Gopts() {
    core::GuardedOptions gopts;
    gopts.hybrid.neural_min_relations = 3;
    gopts.hybrid.mcts.time_budget_ms = 1e9;
    gopts.hybrid.mcts.max_rollouts = 16;
    gopts.hybrid.mcts.eval_batch = 4;
    gopts.hybrid.mcts.seed = 5;
    return gopts;
  }

  static PlanServiceDeps Deps(const std::string& backend) {
    PlanServiceDeps deps;
    deps.planner_name = backend;
    deps.model = SharedModel();
    deps.baseline = baseline_;
    deps.guard_options = Gopts();
    return deps;
  }

  /// Non-owning alias over the suite-owned model.
  static std::shared_ptr<const core::QpSeeker> SharedModel() {
    return std::shared_ptr<const core::QpSeeker>(
        std::shared_ptr<const core::QpSeeker>(), model_);
  }

  static TenantSpec Spec(const std::string& id,
                         const std::string& backend = "neural",
                         size_t max_pending = 16) {
    TenantSpec spec;
    spec.tenant_id = id;
    spec.deps = Deps(backend);
    spec.quota.max_pending = max_pending;
    return spec;
  }

  static PlanRequest Req(const std::string& tenant, uint64_t seed = 0) {
    PlanRequest request;
    request.query = ThreeWay();
    request.tenant_id = tenant;
    request.seed = seed;
    return request;
  }

  static std::unique_ptr<ShardedPlanService> MakeSharded(
      int shards = 2, int workers_per_shard = 2) {
    ShardedPlanServiceOptions options;
    options.shards = shards;
    options.workers_per_shard = workers_per_shard;
    auto sharded = ShardedPlanService::Create(options);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return std::move(sharded).value();
  }

  static storage::Database* db_;
  static stats::DatabaseStats* stats_;
  static optimizer::Planner* baseline_;
  static const core::QpSeeker* model_;
};

storage::Database* TenantTest::db_ = nullptr;
stats::DatabaseStats* TenantTest::stats_ = nullptr;
optimizer::Planner* TenantTest::baseline_ = nullptr;
const core::QpSeeker* TenantTest::model_ = nullptr;

TEST_F(TenantTest, RegistryValidatesIdsAndRejectsDuplicates) {
  auto sharded = MakeSharded();
  EXPECT_TRUE(sharded->AddTenant(Spec("acme")).ok());
  EXPECT_EQ(sharded->AddTenant(Spec("acme")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(sharded->AddTenant(Spec("")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded->AddTenant(Spec("Mixed-Case!")).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sharded->AddTenant(Spec(std::string(65, 'a'))).code(),
            StatusCode::kInvalidArgument);

  // Non-baseline backends need a model; shed-to-baseline needs a baseline.
  TenantSpec no_model = Spec("ghost");
  no_model.deps.model = nullptr;
  EXPECT_EQ(sharded->AddTenant(std::move(no_model)).code(),
            StatusCode::kInvalidArgument);
  TenantSpec no_baseline = Spec("degrader");
  no_baseline.deps.baseline = nullptr;
  no_baseline.quota.shed_to_baseline = true;
  EXPECT_EQ(sharded->AddTenant(std::move(no_baseline)).code(),
            StatusCode::kInvalidArgument);

  EXPECT_NE(sharded->Tenant("acme"), nullptr);
  EXPECT_EQ(sharded->Tenant("ghost"), nullptr);
  EXPECT_EQ(sharded->TenantStats("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sharded->RemoveTenant("ghost").code(), StatusCode::kNotFound);
  EXPECT_TRUE(sharded->RemoveTenant("acme").ok());
  EXPECT_TRUE(sharded->tenant_ids().empty());
}

// One id added and removed from two threads at once, round after round,
// the removal starting 0..10 us after the add so that it lands in every
// phase of AddTenant: whatever the interleaving, the tenant ends up routed
// exactly when it is listed, and the control plane still works on it
// afterwards. The two threads persist and spin between rounds, so their
// relative start is set by the delay, not by thread start-up.
TEST_F(TenantTest, RacingAddAndRemoveOfOneIdStayConsistent) {
  auto sharded = MakeSharded(2, 1);
  constexpr int kRounds = 500;
  std::atomic<int> go{-1};
  std::atomic<int> finished{0};
  auto wait_for_round = [&go](int round) {
    while (go.load(std::memory_order_acquire) < round) {
    }
  };
  std::thread adder([&] {
    for (int round = 0; round < kRounds; ++round) {
      wait_for_round(round);
      (void)sharded->AddTenant(Spec("flip", "baseline"));
      finished.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  std::thread remover([&] {
    for (int round = 0; round < kRounds; ++round) {
      wait_for_round(round);
      const auto at = std::chrono::steady_clock::now() +
                      std::chrono::nanoseconds(200 * (round % 50));
      while (std::chrono::steady_clock::now() < at) {
      }
      (void)sharded->RemoveTenant("flip");
      finished.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  int inconsistent = 0;
  for (int round = 0; round < kRounds; ++round) {
    go.store(round, std::memory_order_release);
    while (finished.load(std::memory_order_acquire) < 2 * (round + 1)) {
    }
    const std::vector<std::string> ids = sharded->tenant_ids();
    const bool listed = std::find(ids.begin(), ids.end(), "flip") != ids.end();
    const bool routed =
        sharded->Submit(Req("flip", 1)).get().status().code() !=
        StatusCode::kNotFound;
    if (listed != routed) inconsistent += 1;
    // Back to a clean slate for the next round, whatever state this one
    // left behind.
    while (sharded->RemoveTenant("flip").ok()) {
    }
  }
  adder.join();
  remover.join();
  EXPECT_EQ(inconsistent, 0) << "rounds routed but unlisted (or the reverse)";
  ASSERT_TRUE(sharded->AddTenant(Spec("flip")).ok());
  EXPECT_TRUE(sharded->Submit(Req("flip", 2)).get().ok());
}

TEST_F(TenantTest, ShardRoutingIsDeterministic) {
  // Same id -> same shard, for two independently built rings and for
  // repeated lookups (no dependence on process state or lookup order).
  const ShardRing a(4), b(4);
  std::set<int> used;
  for (int t = 0; t < 64; ++t) {
    const std::string id = "tenant_" + std::to_string(t);
    const int shard = a.ShardFor(id);
    EXPECT_EQ(shard, b.ShardFor(id)) << id;
    EXPECT_EQ(shard, a.ShardFor(id)) << id;
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    used.insert(shard);
  }
  // 64 sequential ids over 4 shards must not collapse onto one arc (the
  // regression the avalanche finalizer in TenantHash guards against).
  EXPECT_EQ(used.size(), 4u);

  // The service's routing is the ring's.
  auto sharded = MakeSharded(4);
  ASSERT_TRUE(sharded->AddTenant(Spec("acme")).ok());
  const ShardRing reference(4);
  EXPECT_EQ(sharded->ShardOf("acme"), reference.ShardFor("acme"));
}

TEST_F(TenantTest, UnknownTenantSubmitReturnsNotFound) {
  auto sharded = MakeSharded();
  ASSERT_TRUE(sharded->AddTenant(Spec("acme")).ok());

  auto unknown = sharded->Submit(Req("ghost")).get();
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto empty = sharded->Submit(Req("")).get();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);

  EXPECT_EQ(sharded->TenantStats("ghost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(sharded->RemoveTenant("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(sharded->SwapTenantModel("ghost", SharedModel()).code(),
            StatusCode::kNotFound);

  auto known = sharded->Submit(Req("acme", 11)).get();
  ASSERT_TRUE(known.ok()) << known.status().ToString();
}

TEST_F(TenantTest, RemoveWhileInflightQuiescesBeforeDestruction) {
  auto sharded = MakeSharded(1, 1);
  ASSERT_TRUE(sharded->AddTenant(Spec("acme")).ok());

  // Stall the first rollout so the request is mid-plan when the tenant is
  // removed; RemoveTenant must wait it out, and the future must resolve.
  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 200.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  auto inflight = sharded->Submit(Req("acme", 21));
  while (sharded->TenantStats("acme")->submitted == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(sharded->RemoveTenant("acme").ok());

  // Removal quiesced the core: the in-flight future is already resolved.
  auto result = inflight.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->plan, nullptr);

  // Unrouted: the id is free again.
  EXPECT_EQ(sharded->Submit(Req("acme")).get().status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(sharded->AddTenant(Spec("acme")).ok());
}

TEST_F(TenantTest, HotTenantShedsOnItsOwnQuota) {
  auto sharded = MakeSharded(2, 1);
  // Colocate both tenants by construction-independent routing; the quota
  // must isolate them regardless of shard placement.
  ASSERT_TRUE(sharded->AddTenant(Spec("hot", "neural", 1)).ok());
  ASSERT_TRUE(sharded->AddTenant(Spec("cold", "neural", 16)).ok());

  fault::FaultSpec stall;
  stall.code = StatusCode::kOk;
  stall.latency_ms = 200.0;
  stall.trigger_on_hit = 1;
  fault::FaultInjector::Global().Arm("mcts.rollout", stall);

  // First hot request parks in the stalled rollout; the burst behind it
  // exceeds max_pending=1 and sheds on the hot tenant's own quota.
  auto first = sharded->Submit(Req("hot", 30));
  while (sharded->TenantStats("hot")->submitted == 0) {
    std::this_thread::yield();
  }
  std::vector<std::future<StatusOr<core::PlanResult>>> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(sharded->Submit(Req("hot", 31 + static_cast<uint64_t>(i))));
  }
  int shed = 0;
  for (auto& f : burst) {
    auto r = f.get();
    if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) ++shed;
  }
  EXPECT_GT(shed, 0);
  EXPECT_TRUE(first.get().ok());
  EXPECT_GE(sharded->TenantStats("hot")->shed, shed);

  // The cold tenant was never affected: no shed, requests complete.
  auto cold = sharded->Submit(Req("cold", 40)).get();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(sharded->TenantStats("cold")->shed, 0);
}

TEST_F(TenantTest, PlansAreBitIdenticalToSingleTenantServing) {
  auto sharded = MakeSharded(4, 2);
  for (const char* id : {"alpha", "beta", "gamma"}) {
    ASSERT_TRUE(sharded->AddTenant(Spec(id)).ok());
  }
  ShardedPlanServiceOptions solo_opts;
  solo_opts.workers_per_shard = 2;
  auto solo = OneTenant::Make(Deps("neural"), solo_opts);
  ASSERT_NE(solo, nullptr);

  for (uint64_t seed : {101u, 102u, 103u}) {
    for (const char* id : {"alpha", "beta", "gamma"}) {
      auto via_shard = sharded->Submit(Req(id, seed)).get();
      PlanRequest solo_req;
      solo_req.query = ThreeWay();
      solo_req.seed = seed;
      auto via_solo = solo->Submit(std::move(solo_req)).get();
      ASSERT_TRUE(via_shard.ok() && via_solo.ok());
      const query::Query q = ThreeWay();
      EXPECT_EQ(via_shard->plan->ToString(*db_, q),
                via_solo->plan->ToString(*db_, q))
          << "tenant " << id << " seed " << seed;
    }
  }
}

TEST_F(TenantTest, SwapTenantModelOnlyTouchesThatTenant) {
  auto sharded = MakeSharded();
  ASSERT_TRUE(sharded->AddTenant(Spec("acme")).ok());
  ASSERT_TRUE(sharded->AddTenant(Spec("globex")).ok());

  auto before = sharded->Submit(Req("acme", 50)).get();
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(sharded->SwapTenantModel("acme", SharedModel()).ok());

  // Same model weights -> same deterministic plan after the swap, and the
  // other tenant keeps serving throughout.
  auto after = sharded->Submit(Req("acme", 50)).get();
  ASSERT_TRUE(after.ok());
  const query::Query q = ThreeWay();
  EXPECT_EQ(before->plan->ToString(*db_, q), after->plan->ToString(*db_, q));
  EXPECT_TRUE(sharded->Submit(Req("globex", 51)).get().ok());
}

TEST_F(TenantTest, ControlPlaneRacesLiveTraffic) {
  // TSan target: AddTenant / RemoveTenant / SwapTenantModel churn while
  // clients submit against stable tenants on the same shards.
  auto sharded = MakeSharded(2, 2);
  ASSERT_TRUE(sharded->AddTenant(Spec("stable_a")).ok());
  ASSERT_TRUE(sharded->AddTenant(Spec("stable_b")).ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string id = "churn_" + std::to_string(round++ % 2);
      if (sharded->AddTenant(Spec(id)).ok()) {
        (void)sharded->SwapTenantModel(id, SharedModel());
        (void)sharded->RemoveTenant(id);
      }
    }
  });

  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const uint64_t seed = 60 + static_cast<uint64_t>(c) * 100 +
                              static_cast<uint64_t>(i);
        auto r =
            sharded->Submit(Req(c == 0 ? "stable_a" : "stable_b", seed)).get();
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        completed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_EQ(completed.load(), 2 * kPerClient);
  EXPECT_EQ(sharded->tenant_ids().size(), 2u);
}

// One ledger per event: across a scripted run — OK traffic, a ladder
// degradation, a planning retry, an admission retry, shed-degrades and a
// model swap — every
// registry family moves by exactly the sum of its owners' fields. The
// swapped tenant's retired planner is an owner too, so its guard stats are
// read just before the swap.
TEST_F(TenantTest, RegistryFamiliesEqualTheSumOfTheOwnersLedgers) {
  ShardedPlanServiceOptions options;
  options.shards = 1;
  options.workers_per_shard = 1;
  options.retry.max_retries = 1;
  options.retry.backoff_base_ms = 0.1;
  auto sharded = ShardedPlanService::Create(options).value();
  const std::vector<std::string> ids = {"ledger_a", "ledger_b"};
  ASSERT_TRUE(sharded->AddTenant(Spec(ids[0], "guarded")).ok());
  TenantSpec degradable = Spec(ids[1], "neural", 1);
  degradable.quota.shed_to_baseline = true;
  ASSERT_TRUE(sharded->AddTenant(std::move(degradable)).ok());

  auto& reg = metrics::Registry::Global();
  const std::vector<std::string> counters = {
      "qps.serve.requests",
      "qps.serve.shed",
      "qps.serve.deadline_misses",
      "qps.serve.retries.attempts",
      "qps.serve.retries.exhausted",
      "qps.serve.retries.success_after_retry",
      "qps.guarded.requests",
      "qps.guarded.served_neural",
      "qps.guarded.served_greedy",
      "qps.guarded.served_traditional",
      "qps.guarded.circuit_short_circuits"};
  auto read = [&] {
    std::map<std::string, double> out;
    for (const std::string& name : counters) {
      out[name] = static_cast<double>(reg.GetCounter(name)->value());
    }
    for (const std::string name :
         {"qps.serve.batch_size", "qps.serve.batch_plans"}) {
      metrics::Histogram* hist = reg.GetHistogram(name);
      out[name + ".count"] = static_cast<double>(hist->count());
      out[name + ".sum"] = hist->sum();
    }
    return out;
  };
  auto plan = [&](const std::string& tenant, uint64_t seed) {
    return sharded->Submit(Req(tenant, seed));
  };
  auto arm = [&](const std::string& tenant, StatusCode code,
                 double latency_ms) {
    fault::FaultSpec spec;
    spec.code = code;
    spec.latency_ms = latency_ms;
    spec.trigger_on_hit = 1;
    spec.only_context = tenant;
    fault::FaultInjector::Global().Arm("mcts.rollout", spec);
  };
  const auto before = read();

  for (uint64_t seed : {1u, 2u}) {
    ASSERT_TRUE(plan(ids[0], seed).get().ok());
    ASSERT_TRUE(plan(ids[1], seed).get().ok());
  }
  // Ladder degradation: tenant a's neural rung fails, greedy serves it.
  arm(ids[0], StatusCode::kInternal, 0.0);
  auto degraded = plan(ids[0], 3).get();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->stage, core::PlanStage::kGreedy);
  // Planning retry: tenant b's first attempt hits a transient fault.
  arm(ids[1], StatusCode::kIOError, 0.0);
  ASSERT_TRUE(plan(ids[1], 4).get().ok());
  // Admission retry: tenant a's submission hits a transient fault once.
  {
    fault::FaultSpec spec;
    spec.code = StatusCode::kUnavailable;
    spec.trigger_on_hit = 1;
    spec.only_context = ids[0];
    fault::FaultInjector::Global().Arm("serve.submit", spec);
  }
  ASSERT_TRUE(plan(ids[0], 6).get().ok());
  // Shed-degrade: tenant b's only worker stalls, its one-request quota
  // fills, and the burst behind it runs on the inline DP planner.
  arm(ids[1], StatusCode::kOk, 200.0);
  std::vector<std::future<StatusOr<core::PlanResult>>> burst;
  for (uint64_t seed = 10; seed < 15; ++seed) burst.push_back(plan(ids[1], seed));
  for (auto& f : burst) ASSERT_TRUE(f.get().ok());
  fault::FaultInjector::Global().DisarmAll();
  // Swap: the retired planner keeps what it counted.
  core::GuardStats guard = sharded->Tenant(ids[0])->guard_stats();
  ASSERT_TRUE(sharded->SwapTenantModel(ids[0], SharedModel()).ok());
  ASSERT_TRUE(plan(ids[0], 5).get().ok());

  const auto after = read();
  PlanService::Stats sum;
  for (const std::string& id : ids) {
    const PlanService::Stats st = sharded->TenantStats(id).value();
    sum.submitted += st.submitted;
    sum.shed += st.shed;
    sum.shed_degraded += st.shed_degraded;
    sum.deadline_hits += st.deadline_hits;
    sum.retry_attempts += st.retry_attempts;
    sum.retry_exhausted += st.retry_exhausted;
    sum.retry_successes += st.retry_successes;
    sum.batching.flushes += st.batching.flushes;
    sum.batching.fused_queries += st.batching.fused_queries;
    sum.batching.fused_plans += st.batching.fused_plans;
    const core::GuardStats gs = sharded->Tenant(id)->guard_stats();
    guard.requests += gs.requests;
    guard.neural_success += gs.neural_success;
    guard.greedy_success += gs.greedy_success;
    guard.traditional_success += gs.traditional_success;
    guard.circuit_short_circuits += gs.circuit_short_circuits;
    // The tenant-labelled window is fed by the same call as submitted.
    EXPECT_EQ(obs::WindowRegistry::Global()
                  .GetCounter("qps.tenant.requests." + id)
                  ->Total(),
              st.submitted);
  }
  // The script reached every event it meant to.
  EXPECT_GT(sum.shed_degraded, 0);
  EXPECT_EQ(sum.retry_attempts, 2);
  EXPECT_EQ(sum.retry_successes, 2);
  EXPECT_EQ(guard.greedy_success, 1);
  EXPECT_GT(sum.batching.flushes, 0);

  const std::map<std::string, int64_t> owners = {
      {"qps.serve.requests", sum.submitted},
      {"qps.serve.shed", sum.shed},
      {"qps.serve.deadline_misses", sum.deadline_hits},
      {"qps.serve.retries.attempts", sum.retry_attempts},
      {"qps.serve.retries.exhausted", sum.retry_exhausted},
      {"qps.serve.retries.success_after_retry", sum.retry_successes},
      {"qps.serve.batch_size.count", sum.batching.flushes},
      {"qps.serve.batch_size.sum", sum.batching.fused_queries},
      {"qps.serve.batch_plans.sum", sum.batching.fused_plans},
      {"qps.guarded.requests", guard.requests},
      {"qps.guarded.served_neural", guard.neural_success},
      {"qps.guarded.served_greedy", guard.greedy_success},
      {"qps.guarded.served_traditional", guard.traditional_success},
      {"qps.guarded.circuit_short_circuits", guard.circuit_short_circuits}};
  for (const auto& [name, owned] : owners) {
    EXPECT_EQ(after.at(name) - before.at(name), static_cast<double>(owned))
        << name;
  }
}

}  // namespace
}  // namespace serve
}  // namespace qps
