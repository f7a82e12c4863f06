// Copyright 2026 The QPSeeker Authors
//
// End-to-end benchmark driver. Runs one workload through the real
// in-process path
//
//   SQL text -> query::ParseSql -> planner or serve::ShardedPlanService
//            -> query::ValidatePlan -> exec::Executor
//
// with a fixed MCTS rollout budget and a wall-clock budget that never binds,
// so each plan is a function of (query, seed) and latency measures work
// done. Layers are timed from outside, around calls to their public
// functions; the driver adds no instrumentation to the program. See
// README.md for the workloads, the metric map, and how to read a traced run.
//
//   e2e_driver --workload plan-direct|serve-closed|serve-open-skewed
//              --seed N --seconds S --trace 0|1
//              [--work-dir DIR] [--trace-out FILE]
//   e2e_driver --list
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). The exit code is 0 only when every correctness check
// passed and no request failed.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/plan_cache.h"
#include "core/planner_backends.h"
#include "core/qpseeker.h"
#include "eval/metrics.h"
#include "eval/workloads.h"
#include "exec/executor.h"
#include "optimizer/planner.h"
#include "query/parser.h"
#include "query/plan.h"
#include "sampling/plan_sampler.h"
#include "serve/sharded_service.h"
#include "stats/analyze.h"
#include "storage/schemas.h"
#include "util/logging.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace qps;  // NOLINT: the driver speaks to every layer
using SteadyClock = std::chrono::steady_clock;

double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Fixed configuration. Every value here is part of the benchmark definition:
// changing one changes what the numbers mean, so it is a benchmark change.

constexpr int64_t kBaseRows = 3000;        // ci-scale databases
constexpr uint64_t kDbSeed = 20240301;
constexpr uint64_t kTrainSeed = 4242;
constexpr uint64_t kModelSeed = 1234;
constexpr int kTrainQueries = 30;
constexpr int kTrainEpochs = 6;
// Inputs are queries whose DP plan keeps every intermediate result under
// kInputRowLimit rows. Many generated 4-7 way joins have results in the
// millions; they have no reference runtime and say nothing about planning.
// Served plans may build intermediates up to kExecRowLimit before the
// executor stops them.
constexpr int64_t kInputRowLimit = 100000;
constexpr int64_t kExecRowLimit = 5 * kInputRowLimit;
constexpr int kRollouts = 64;              // MCTS rollouts per request
constexpr int kEvalBatch = 4;              // candidates per model call
constexpr uint64_t kMctsSeed = 5;
constexpr int64_t kCacheBytes = 4 << 20;   // plan-prediction cache per model
constexpr int kSetupReps = 3;              // set-ups per run; setup_s is their median
// Every workload makes repeated passes over one set of inputs. A pass is
// kPassRequests requests (in the open loop, arrivals), so a p99 over them
// has ten samples beyond it. Each pass plans the same (query, seed) pairs
// from the same prediction-cache state, so it repeats the same work; a
// request's latency is its median over the passes, and a host stall that
// slows one pass moves no request's figure. A run makes at least kMinPasses
// passes and goes on until it has measured for --seconds.
constexpr size_t kPassRequests = 1000;
constexpr int kMinPasses = 3;
constexpr double kMaxRunSeconds = 100.0;   // no pass starts after this
constexpr size_t kCheckSample = 32;        // serving responses replayed directly
constexpr double kSloMs = 100.0;           // latency limit of slo_attainment_100ms

// serve-open-skewed.
constexpr int kTenants = 8;
constexpr int kShards = 2;
constexpr double kZipfSkew = 0.5;          // the hot tenant gets 23% of arrivals
constexpr double kOpenRate = 90.0;         // arrivals per second
constexpr int kTemplatesPerTenant = 8;
constexpr int kVariantsPerTemplate = 4;    // constant variants of each template
constexpr uint64_t kTemplateSeed = 0x7e7a7ULL;
constexpr size_t kSwapEvery = 500;         // arrivals between hot-tenant swaps
constexpr size_t kTenantMaxPending = 8;

// ---------------------------------------------------------------------------
// Metric catalog. The output must carry exactly these names; run.py checks
// them against BENCHMARK.json.

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> k = {
      {"latency_p50_ms", "ms"},      {"latency_p99_ms", "ms"},
      {"throughput_rps", "1/s"},     {"slo_attainment_100ms", "ratio"},
      {"query_ms_p50", "ms"},        {"plan_runtime_ratio", "ratio"},
      {"runtime_qerror_p50", "ratio"}, {"ok_ratio", "ratio"},
      {"peak_rss_mb", "MB"},         {"setup_s", "s"},
  };
  return k;
}

const std::vector<MetricDef>& PerLayerCatalog() {
  static const std::vector<MetricDef> k = {
      {"query.parse_us_p50", "us"},
      {"optimizer.dp_calls_per_req", "ratio"},
      {"optimizer.dp_ms_p50", "ms"},
      {"mcts.rollouts_per_req", "count"},
      {"mcts.tree_ms_per_req", "ms"},
      {"mcts.distinct_plan_ratio", "ratio"},
      {"predict.calls_per_req", "count"},
      {"predict.plans_per_call", "count"},
      {"predict.us_per_plan", "us"},
      {"predict.busy_share", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_req", "count"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.queue_ms_p99", "ms"},
      {"serve.plan_ms_p50", "ms"},
      {"rendezvous.mean_batch", "count"},
      {"rendezvous.flushes_per_req", "count"},
      {"rendezvous.plans_per_flush", "count"},
      {"serve.shed_ratio", "ratio"},
      {"serve.degraded_ratio", "ratio"},
      {"serve.swap_ms_p50", "ms"},
      {"exec.ms_p50", "ms"},
      {"exec.tuples_per_query", "count"},
      {"exec.abort_ratio", "ratio"},
      {"setup.db_s", "s"},
      {"setup.train_s", "s"},
      {"setup.load_s", "s"},
      {"gen.lag_p99_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.attributed_share", "ratio"},
      {"trace.share.parse", "ratio"},
      {"trace.share.plan_self", "ratio"},
      {"trace.share.evaluate", "ratio"},
      {"trace.share.validate", "ratio"},
      {"trace.share.execute", "ratio"},
      {"trace.share.serve_wait", "ratio"},
  };
  return k;
}

const std::vector<const char*>& Workloads() {
  static const std::vector<const char*> k = {"plan-direct", "serve-closed",
                                             "serve-open-skewed"};
  return k;
}

// ---------------------------------------------------------------------------
// Run bookkeeping.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  bool list = false;
};

/// Attempted/succeeded/failed per phase, plus the run's verdict.
class Ledger {
 public:
  void Phase(const std::string& name, int64_t attempted, int64_t failed) {
    std::printf("# phase %-10s attempted=%lld succeeded=%lld failed=%lld\n",
                name.c_str(), static_cast<long long>(attempted),
                static_cast<long long>(attempted - failed),
                static_cast<long long>(failed));
    attempted_ += attempted;
    failed_ += failed;
  }
  void Fail(const std::string& why) {
    if (failures_.size() < 20) std::printf("# CHECK FAILED: %s\n", why.c_str());
    failures_.push_back(why);
  }
  bool correct() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Set-up: databases, training, checkpoints.

enum DbKind { kImdb = 0, kStack = 1 };
const char* DbName(int kind) { return kind == kImdb ? "imdb" : "stack"; }

struct DbEnv {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<stats::DatabaseStats> stats;
  std::unique_ptr<optimizer::Planner> dp;
  std::string checkpoint;
};

core::GuardedOptions PlannerOptions() {
  core::GuardedOptions g;
  g.hybrid.mcts.time_budget_ms = 1e9;  // never binds: the rollout cap ends search
  g.hybrid.mcts.max_rollouts = kRollouts;
  g.hybrid.mcts.eval_batch = kEvalBatch;
  g.hybrid.mcts.threads = 1;
  g.hybrid.mcts.seed = kMctsSeed;
  return g;
}

void BuildDb(int kind, DbEnv* env) {
  Rng rng(kDbSeed + static_cast<uint64_t>(kind));
  auto db = storage::BuildDatabase(kind == kImdb ? storage::ImdbLikeSpec()
                                                 : storage::StackLikeSpec(),
                                   kBaseRows, &rng);
  QPS_CHECK(db.ok()) << db.status().ToString();
  env->db = std::move(db).value();
  env->stats = stats::DatabaseStats::Analyze(*env->db);
  env->dp = std::make_unique<optimizer::Planner>(*env->db, *env->stats);
  // storage::Table builds its ordered indexes lazily inside a const
  // accessor, without a lock. Inputs are generated by executing DP plans on
  // several threads, so every index is built here, on one thread, first.
  for (int t = 0; t < env->db->num_tables(); ++t) {
    const storage::Table& table = env->db->table(t);
    for (int c = 0; c < table.num_columns(); ++c) table.OrderedIndex(c);
  }
}

void TrainAndSave(int kind, DbEnv* env, const std::string& path) {
  Rng rng(kTrainSeed + static_cast<uint64_t>(kind));
  eval::WorkloadOptions wo;
  wo.num_queries = kTrainQueries;
  wo.min_joins = 1;
  wo.max_joins = 5;
  wo.name_prefix = "train";
  auto queries = eval::GenerateWorkload(*env->db, wo, &rng);
  sampling::DatasetOptions dopts;
  dopts.source = sampling::PlanSource::kSampled;
  dopts.sampler.candidates_per_order = 3;
  dopts.sampler.max_plans_per_query = 8;
  dopts.sampler.max_join_orders = 60;
  dopts.exec.max_intermediate_rows = kInputRowLimit;
  auto ds = sampling::BuildQepDataset(*env->db, *env->stats, std::move(queries),
                                      dopts, &rng);
  QPS_CHECK(ds.ok()) << ds.status().ToString();
  core::QpSeeker model(*env->db, *env->stats,
                       core::QpSeekerConfig::ForScale(Scale::kCi), kModelSeed);
  core::TrainOptions topts;
  topts.epochs = kTrainEpochs;
  topts.learning_rate = 2e-3f;
  topts.seed = 97;
  model.Train(*ds, topts);
  Status st = model.Save(path);
  QPS_CHECK(st.ok()) << st.ToString();
  env->checkpoint = path;
}

std::shared_ptr<core::QpSeeker> LoadModel(const DbEnv& env) {
  auto model = std::make_shared<core::QpSeeker>(
      *env.db, *env.stats, core::QpSeekerConfig::ForScale(Scale::kCi), kModelSeed);
  Status st = model->Load(env.checkpoint);
  QPS_CHECK(st.ok()) << st.ToString();
  model->EnableCache(kCacheBytes);
  return model;
}

struct SetupTimes {
  double total_s = 0.0;
  double db_s = 0.0;
  double train_s = 0.0;
  double load_s = 0.0;
};

// ---------------------------------------------------------------------------
// Inputs. Generated from --seed only; the program sees SQL text.

struct Input {
  int db = kImdb;
  int tenant = 0;
  std::string sql;
  uint64_t seed = 1;
};

/// True when the DP plan of `q` executes within kInputRowLimit.
bool Runnable(const DbEnv& env, const query::Query& q) {
  auto plan = env.dp->Plan(q);
  if (!plan.ok()) return false;
  exec::ExecOptions eo;
  eo.max_intermediate_rows = kInputRowLimit;
  eo.accuracy_backend.clear();
  exec::Executor ex(*env.db, eo);
  return ex.Execute(q, plan->get()).ok();
}

/// One runnable query with exactly `joins` joins, as SQL text. A pure
/// function of `item_seed`. The join count stays fixed across attempts, so
/// rejecting large results does not tilt the mix towards small queries.
std::string OneQuerySql(const DbEnv& env, int joins, uint64_t item_seed) {
  for (uint64_t attempt = 0; attempt < 1000; ++attempt) {
    Rng rng(ItemSeed(item_seed, attempt));
    eval::WorkloadOptions wo;
    wo.num_queries = 1;
    wo.min_joins = joins;
    wo.max_joins = joins;
    auto qs = eval::GenerateWorkload(*env.db, wo, &rng);
    QPS_CHECK(qs.size() == 1);
    if (Runnable(env, qs[0])) return qs[0].ToSql(*env.db);
  }
  QPS_LOG(Fatal) << "no runnable query found for seed " << item_seed;
  return "";
}

/// Fills `inputs[i] = make(i)` on every core. Inputs are pure functions of
/// their index, so the result does not depend on the thread count.
void GenerateInputs(std::vector<Input>* inputs, const std::function<Input(size_t)>& make) {
  const auto t0 = SteadyClock::now();
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < inputs->size(); i = next.fetch_add(1)) {
        (*inputs)[i] = make(i);
      }
    });
  }
  for (auto& t : pool) t.join();
  std::printf("# inputs: %zu generated in %.2f s\n", inputs->size(),
              MsBetween(t0, SteadyClock::now()) / 1000.0);
}

uint64_t RequestSeed(uint64_t seed, size_t i) {
  return ItemSeed(seed ^ 0x5eedULL, i) | 1;  // non-zero: 0 means "backend default"
}

/// Whether request `i` of a traced run is traced: alternate blocks of 12.
/// Inputs are stratified by index (database by i % 2, join count by
/// i / 2 % 6, or i % 3), so every stratum appears in both halves and
/// trace.overhead_ratio compares like with like.
bool TracedRequest(bool trace, size_t i) { return trace && i / 12 % 2 == 1; }

// ---------------------------------------------------------------------------
// Per-request record, filled by the measured loop and the post pass.

struct Sample {
  bool done = false;
  bool ok = false;
  bool traced = false;
  int db = kImdb;
  uint64_t seed = 0;
  double latency_ms = 0.0;   // SQL text -> validated plan (open loop: from due)
  double query_ms = 0.0;     // plan-direct: latency_ms + exec_ms
  double parse_us = 0.0;
  double plan_ms = 0.0;      // planner wall time (PlanResult::plan_ms when served)
  double lag_ms = 0.0;
  bool used_neural = false;
  bool degraded = false;
  int rollouts = 0;
  double predicted_runtime_ms = 0.0;
  query::Query query;
  query::PlanPtr plan;
  // Execution of the served plan.
  bool executed = false;
  bool aborted = false;      // the executor stopped it at its row limit
  double exec_ms = 0.0;
  double exec_runtime_ms = 0.0;
  double exec_rows = 0.0;
  int64_t exec_tuples = 0;
};

/// One pass of a run: a Sample per request, indexed like the inputs.
using Pass = std::vector<Sample>;

/// `field` of request i in pass p at [p][i]; NaN where the attempt failed.
std::vector<std::vector<double>> PassValues(const std::vector<Pass>& passes,
                                            double Sample::*field) {
  std::vector<std::vector<double>> out;
  for (const Pass& pass : passes) {
    out.emplace_back();
    for (const Sample& s : pass) out.back().push_back(s.ok ? s.*field : NAN);
  }
  return out;
}

/// Every pass plans the same (query, seed) pairs, so each must return the
/// plan the first pass returned.
void CheckRepeats(const std::vector<Pass>& passes, const std::vector<DbEnv*>& envs,
                  Ledger* ledger) {
  int64_t attempted = 0, failed = 0;
  for (size_t p = 1; p < passes.size(); ++p) {
    for (size_t i = 0; i < passes[p].size() && i < passes[0].size(); ++i) {
      const Sample& first = passes[0][i];
      const Sample& again = passes[p][i];
      // A request shed to the DP baseline is planned by another planner.
      if (!first.ok || !again.ok || first.degraded || again.degraded) continue;
      attempted += 1;
      const storage::Database& db = *envs[static_cast<size_t>(first.db)]->db;
      if (again.plan->ToString(db, again.query) != first.plan->ToString(db, first.query)) {
        ledger->Fail("request " + std::to_string(i) + ": pass " + std::to_string(p) +
                     " returned another plan than pass 0");
        failed += 1;
      }
    }
  }
  ledger->Phase("repeat", attempted, failed);
}

/// What one traced evaluate hook saw during a request.
struct EvalProbe {
  const core::QpSeeker* model = nullptr;
  SpanLog* log = nullptr;
  int64_t parent = -1;
  int64_t request = -1;
  double ms = 0.0;
  int calls = 0;
  int plans = 0;
  std::unordered_set<uint64_t> shapes;

  core::BatchEvalFn Hook() {
    return [this](const query::Query& q,
                  const std::vector<const query::PlanNode*>& batch) {
      for (const auto* p : batch) shapes.insert(core::PlanShapeHash(*p));
      ScopedSpan span(log, "evaluate", parent, request);
      const auto t0 = SteadyClock::now();
      auto out = model->PredictPlansBatch(q, batch);
      ms += MsBetween(t0, SteadyClock::now());
      calls += 1;
      plans += static_cast<int>(batch.size());
      return out;
    };
  }
};

/// Per-layer figures of directly planned requests (plan-direct traced
/// requests, or the serving workloads' replay sample).
struct DirectLayer {
  std::vector<double> tree_ms;      // neural requests: planner time minus evaluate
  std::vector<double> dp_ms;        // DP-routed requests: planner time
  double eval_ms = 0.0;
  double plan_ms = 0.0;             // neural requests' planner time
  int64_t calls = 0;
  int64_t plans = 0;
  int64_t distinct = 0;
  int64_t neural = 0;

  void Add(const EvalProbe& probe, bool used_neural, double planner_ms) {
    if (!used_neural) {
      dp_ms.push_back(planner_ms);
      return;
    }
    neural += 1;
    tree_ms.push_back(planner_ms - probe.ms);
    eval_ms += probe.ms;
    plan_ms += planner_ms;
    calls += probe.calls;
    plans += probe.plans;
    distinct += static_cast<int64_t>(probe.shapes.size());
  }
};

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread, and the threads it creates from now on,
/// to `cpus`.
void PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  QPS_CHECK(pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

exec::ExecOptions ServedExecOptions() {
  exec::ExecOptions eo;
  eo.max_intermediate_rows = kExecRowLimit;
  return eo;
}

/// Executes the served plan through EXPLAIN ANALYZE; false on failure. A
/// plan stopped at the executor's row limit is a slow plan, not a failed
/// request: as in the repository's experiment harness it is charged the
/// simulated work done up to the stop (a lower bound on its runtime).
bool ExecuteServed(exec::Executor* ex, Sample* s, Ledger* ledger, size_t index) {
  const auto t0 = SteadyClock::now();
  auto analysis = ex->ExplainAnalyze(s->query, s->plan.get());
  s->exec_ms = MsBetween(t0, SteadyClock::now());
  const auto& c = ex->last_counters();
  if (!analysis.ok()) {
    if (analysis.status().code() != StatusCode::kResourceExhausted) {
      ledger->Fail("request " + std::to_string(index) +
                   ": executing the served plan failed: " + analysis.status().ToString());
      return false;
    }
    s->aborted = true;
  } else {
    s->exec_rows = analysis->root_rows;
  }
  s->executed = true;
  s->exec_runtime_ms = std::max(s->plan->actual.runtime_ms, c.RuntimeMs());
  s->exec_tuples = c.tuples_scanned + c.output_tuples;
  return true;
}

// ---------------------------------------------------------------------------
// Shared post pass: execute the quality set against the DP baseline.

struct Quality {
  double runtime_ratio = 0.0;
  double qerror_p50 = 0.0;
  std::vector<double> exec_ms;
  std::vector<double> query_ms;
  double tuples_per_query = 0.0;
  double abort_ratio = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Executes the OK plans of `samples` against the DP baseline. Each distinct
/// (query, seed) pair is executed and counts once, so a popular recurring
/// query does not outweigh the rest of the pool.
Quality QualityPass(std::vector<Sample>* samples, const std::vector<Pass>& passes,
                    const std::vector<DbEnv*>& envs, Ledger* ledger) {
  Quality out;
  std::vector<double> served, baseline, qerrors;
  int64_t tuples = 0, aborted = 0;
  std::set<std::pair<uint64_t, uint64_t>> seen;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<double>> latency_ms;
  std::vector<const Sample*> executed;
  const size_t n = samples->size();
  for (size_t i = 0; i < n; ++i) {
    Sample& s = (*samples)[i];
    if (!s.ok || !seen.emplace(core::QueryFingerprint(s.query), s.seed).second) continue;
    out.attempted += 1;
    const DbEnv& env = *envs[static_cast<size_t>(s.db)];
    exec::Executor ex(*env.db, ServedExecOptions());
    if (!s.executed && !ExecuteServed(&ex, &s, ledger, i)) {
      out.failed += 1;
      continue;
    }
    auto dp_plan = env.dp->Plan(s.query);
    if (!dp_plan.ok()) {
      ledger->Fail("request " + std::to_string(i) + ": DP planning failed: " +
                   dp_plan.status().ToString());
      out.failed += 1;
      continue;
    }
    exec::Executor dp_ex(*env.db, ServedExecOptions());
    auto dp_rows = dp_ex.Execute(s.query, dp_plan->get());
    if (!dp_rows.ok()) {
      ledger->Fail("request " + std::to_string(i) + ": executing the DP plan failed: " +
                   dp_rows.status().ToString());
      out.failed += 1;
      continue;
    }
    if (!s.aborted && *dp_rows != s.exec_rows) {
      ledger->Fail("request " + std::to_string(i) + ": served plan returned " +
                   std::to_string(s.exec_rows) + " rows, DP plan " +
                   std::to_string(*dp_rows));
      out.failed += 1;
      continue;
    }
    served.push_back(s.exec_runtime_ms);
    baseline.push_back((*dp_plan)->actual.runtime_ms);
    if (s.used_neural) {
      qerrors.push_back(eval::QError(s.predicted_runtime_ms, s.exec_runtime_ms, 0.1));
    }
    out.exec_ms.push_back(s.exec_ms);
    executed.push_back(&s);
    tuples += s.exec_tuples;
    if (s.aborted) aborted += 1;
  }
  // A pair's query time is the median latency of its requests in every
  // pass plus its execution time. The first request alone would mix cache
  // misses and hits by the order of arrivals.
  for (const Pass& pass : passes) {
    for (const Sample& s : pass) {
      if (s.ok) latency_ms[{core::QueryFingerprint(s.query), s.seed}].push_back(s.latency_ms);
    }
  }
  for (const Sample* s : executed) {
    const auto it = latency_ms.find({core::QueryFingerprint(s->query), s->seed});
    if (it != latency_ms.end()) out.query_ms.push_back(Median(it->second) + s->exec_ms);
  }
  std::string err;
  auto ratio = GeoMeanRatio(served, baseline, &err);
  if (!ratio) {
    ledger->Fail("plan_runtime_ratio: " + err);
  } else {
    out.runtime_ratio = *ratio;
  }
  out.qerror_p50 = Median(qerrors);
  out.abort_ratio = served.empty() ? 0.0
                                   : static_cast<double>(aborted) /
                                         static_cast<double>(served.size());
  out.tuples_per_query = served.empty() ? 0.0
                                        : static_cast<double>(tuples) /
                                              static_cast<double>(served.size());
  return out;
}

/// Replays a seeded sample of served requests through direct planning of the
/// same (query, seed) and requires byte-identical plans. The hook-wrapped
/// replay also yields the model/tree split that serving hides.
void ReplayCheck(const std::vector<Sample>& samples,
                 const std::vector<core::Planner*>& planners,
                 const std::vector<const core::QpSeeker*>& models,
                 const std::vector<DbEnv*>& envs, uint64_t seed, Ledger* ledger,
                 DirectLayer* layer) {
  std::vector<size_t> candidates;
  const size_t n = samples.size();
  for (size_t i = 0; i < n; ++i) {
    if (samples[i].ok && !samples[i].degraded) candidates.push_back(i);
  }
  SplitMix rng(Mix64(seed ^ 0xc4ec4ULL));
  for (size_t k = candidates.size(); k > 1; --k) {
    std::swap(candidates[k - 1], candidates[rng.Next() % k]);
  }
  candidates.resize(std::min(candidates.size(), kCheckSample));
  int64_t failed = 0;
  for (size_t i : candidates) {
    const Sample& s = samples[i];
    EvalProbe probe;
    probe.model = models[static_cast<size_t>(s.db)];
    core::PlanRequestOptions ro;
    ro.seed = s.seed;
    ro.evaluate = probe.Hook();
    auto r = planners[static_cast<size_t>(s.db)]->Plan(s.query, ro);
    if (!r.ok()) {
      ledger->Fail("replay of request " + std::to_string(i) + " failed: " +
                   r.status().ToString());
      failed += 1;
      continue;
    }
    layer->Add(probe, r->used_neural, r->plan_ms);
    const storage::Database& db = *envs[static_cast<size_t>(s.db)]->db;
    if (r->plan->ToString(db, s.query) != s.plan->ToString(db, s.query)) {
      ledger->Fail("request " + std::to_string(i) +
                   ": served plan differs from direct planning of the same (query, seed)");
      failed += 1;
    }
  }
  ledger->Phase("replay", static_cast<int64_t>(candidates.size()), failed);
}

// ---------------------------------------------------------------------------
// Output.

class Output {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// Prints the result line for the requested catalog. A metric the
  /// workload forgot, or one outside the catalog, fails the run.
  void Print(bool trace, Ledger* ledger) const {
    const auto& catalog = trace ? PerLayerCatalog() : EndToEndCatalog();
    for (const auto& [name, v] : values_) {
      if (!Known(name)) {
        ledger->Fail("driver produced unknown metric " + name);
      }
    }
    std::string json = "{\"metrics\": {";
    bool first = true;
    for (const auto& d : catalog) {
      auto it = values_.find(d.name);
      if (it == values_.end()) {
        ledger->Fail(std::string("metric missing: ") + d.name);
        continue;
      }
      if (!std::isfinite(it->second)) {
        ledger->Fail(std::string("metric not finite: ") + d.name);
        continue;
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", d.name, it->second, d.unit);
      json += buf;
      first = false;
    }
    json += "}";
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  ", \"correct\": %s, \"attempted\": %lld, \"failed\": %lld}",
                  ledger->correct() ? "true" : "false",
                  static_cast<long long>(ledger->attempted()),
                  static_cast<long long>(ledger->failed()));
    json += tail;
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  static bool Known(const std::string& name) {
    for (const auto& d : EndToEndCatalog()) {
      if (name == d.name) return true;
    }
    for (const auto& d : PerLayerCatalog()) {
      if (name == d.name) return true;
    }
    return false;
  }

  std::map<std::string, double> values_;
};

/// Latency figures common to every workload. Latency percentiles are taken
/// over the requests' medians across passes; throughput is the median of
/// the passes' OK requests per second of `pass_s`, each pass's measured
/// seconds; attainment and the OK ratio count every attempt of every pass.
void SetLatencyMetrics(const std::vector<Pass>& passes, const std::vector<double>& pass_s,
                       Output* out) {
  const std::vector<double> med =
      MediansAcrossPasses(PassValues(passes, &Sample::latency_ms));
  std::vector<double> lat, lat_untraced, lat_traced, rates;
  for (size_t i = 0; i < med.size(); ++i) {
    if (std::isnan(med[i])) continue;
    lat.push_back(med[i]);
    (passes.front()[i].traced ? lat_traced : lat_untraced).push_back(med[i]);
  }
  int64_t attempted = 0, ok = 0, within = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    int64_t pass_ok = 0;
    for (const Sample& s : passes[p]) {
      if (!s.done) continue;
      attempted += 1;
      if (!s.ok) continue;
      pass_ok += 1;
      if (s.latency_ms <= kSloMs) within += 1;
    }
    ok += pass_ok;
    rates.push_back(static_cast<double>(pass_ok) / pass_s[p]);
  }
  const TailSummary t = Summarize(lat);
  std::printf("# latency: %zu passes, n=%zu p50=%.3f ms tail=p%g %.3f ms\n", passes.size(),
              t.count, t.p50, t.tail_pct, t.tail);
  out->Set("latency_p50_ms", t.p50);
  out->Set("latency_p99_ms", SupportedPercentile(lat, 99.0));
  out->Set("throughput_rps", Median(rates));
  out->Set("slo_attainment_100ms", Ratio(static_cast<double>(within),
                                        static_cast<double>(attempted)));
  out->Set("ok_ratio", Ratio(static_cast<double>(ok), static_cast<double>(attempted)));
  if (!lat_traced.empty() && !lat_untraced.empty()) {
    out->Set("trace.overhead_ratio", Median(lat_traced) / Median(lat_untraced));
  } else {
    out->Set("trace.overhead_ratio", 1.0);
  }
}

void SetQualityMetrics(const Quality& q, Output* out) {
  out->Set("plan_runtime_ratio", q.runtime_ratio);
  out->Set("runtime_qerror_p50", q.qerror_p50);
  out->Set("exec.ms_p50", Median(q.exec_ms));
  out->Set("exec.tuples_per_query", q.tuples_per_query);
  out->Set("exec.abort_ratio", q.abort_ratio);
}

void SetDirectLayerMetrics(const DirectLayer& d, Output* out) {
  out->Set("mcts.tree_ms_per_req", Median(d.tree_ms));
  out->Set("mcts.distinct_plan_ratio",
           Ratio(static_cast<double>(d.distinct), static_cast<double>(d.plans)));
  out->Set("predict.us_per_plan", Ratio(d.eval_ms * 1000.0, static_cast<double>(d.plans)));
  out->Set("predict.busy_share", Ratio(d.eval_ms, d.plan_ms));
}

void SetCacheMetrics(const std::vector<core::PlanPredictionCache::Stats>& before,
                     const std::vector<core::PlanPredictionCache::Stats>& after,
                     size_t requests, Output* out) {
  int64_t hits = 0, misses = 0, evictions = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const auto b = i < before.size() ? before[i] : core::PlanPredictionCache::Stats{};
    hits += after[i].hits - b.hits;
    misses += after[i].misses - b.misses;
    evictions += after[i].evictions - b.evictions;
  }
  out->Set("cache.hit_ratio",
           Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)));
  out->Set("cache.evictions_per_req",
           Ratio(static_cast<double>(evictions), static_cast<double>(requests)));
}

std::vector<core::PlanPredictionCache::Stats> CacheStats(
    const std::vector<std::shared_ptr<core::QpSeeker>>& models) {
  std::vector<core::PlanPredictionCache::Stats> out;
  for (const auto& m : models) {
    out.push_back(m->cache() != nullptr ? m->cache()->GetStats()
                                        : core::PlanPredictionCache::Stats{});
  }
  return out;
}

/// Shares of request time by layer, from the benchmark's spans.
void SetTraceShares(const SpanLog& log, Output* out) {
  const auto spans = log.spans();
  const auto self = SelfTimesMs(spans);
  double root_ms = 0.0;
  for (const auto& s : spans) {
    if (s.parent < 0 && s.name == "request") root_ms += s.end_ms - s.start_ms;
  }
  auto share = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : Ratio(it->second, root_ms);
  };
  const double parse = share("parse"), plan = share("plan"), eval = share("evaluate"),
               validate = share("validate"), execute = share("execute"),
               wait = share("submit_resolve");
  out->Set("trace.share.parse", parse);
  out->Set("trace.share.plan_self", plan);
  out->Set("trace.share.evaluate", eval);
  out->Set("trace.share.validate", validate);
  out->Set("trace.share.execute", execute);
  out->Set("trace.share.serve_wait", wait);
  out->Set("trace.attributed_share", parse + plan + eval + validate + execute + wait);
}

void SetSetupMetrics(const std::vector<SetupTimes>& reps, Output* out) {
  std::vector<double> total, db, train, load;
  for (const auto& r : reps) {
    total.push_back(r.total_s);
    db.push_back(r.db_s);
    train.push_back(r.train_s);
    load.push_back(r.load_s);
  }
  out->Set("setup_s", Median(total));
  out->Set("setup.db_s", Median(db));
  out->Set("setup.train_s", Median(train));
  out->Set("setup.load_s", Median(load));
  std::printf("# setup: %d reps, median %.3f s\n", kSetupReps, Median(total));
}

/// Runs `make` kSetupReps times, timing each, and keeps the last result.
/// Earlier results are destroyed before the next set-up starts, so peak RSS
/// reflects one fixture.
template <typename State>
std::unique_ptr<State> RepeatSetup(
    const std::function<std::unique_ptr<State>(SetupTimes*)>& make,
    std::vector<SetupTimes>* reps) {
  std::unique_ptr<State> state;
  for (int r = 0; r < kSetupReps; ++r) {
    state.reset();
    SetupTimes t;
    const auto t0 = SteadyClock::now();
    state = make(&t);
    t.total_s = MsBetween(t0, SteadyClock::now()) / 1000.0;
    reps->push_back(t);
  }
  return state;
}

/// Builds the databases of `kinds` and trains and saves one model for each.
void SetupModels(const std::vector<int>& kinds, const std::string& work_dir,
                 std::vector<DbEnv>* envs, SetupTimes* t) {
  envs->resize(2);
  auto t0 = SteadyClock::now();
  for (int k : kinds) BuildDb(k, &(*envs)[static_cast<size_t>(k)]);
  auto t1 = SteadyClock::now();
  for (int k : kinds) {
    TrainAndSave(k, &(*envs)[static_cast<size_t>(k)],
                 work_dir + "/" + DbName(k) + ".ckpt");
  }
  auto t2 = SteadyClock::now();
  t->db_s = MsBetween(t0, t1) / 1000.0;
  t->train_s = MsBetween(t1, t2) / 1000.0;
}

// ---------------------------------------------------------------------------
// plan-direct: one caller thread, closed loop, the guarded planner from
// core::MakePlanner, every query planned, validated and executed.

struct DirectState {
  std::vector<DbEnv> envs;
  std::vector<std::shared_ptr<core::QpSeeker>> models;
  std::vector<std::unique_ptr<core::Planner>> planners;
};

int RunPlanDirect(const Args& args) {
  Ledger ledger;
  Output out;
  std::vector<SetupTimes> reps;
  auto state = RepeatSetup<DirectState>(
      [&](SetupTimes* t) {
        auto s = std::make_unique<DirectState>();
        SetupModels({kImdb, kStack}, args.work_dir, &s->envs, t);
        const auto t0 = SteadyClock::now();
        for (int k : {kImdb, kStack}) {
          s->models.push_back(LoadModel(s->envs[static_cast<size_t>(k)]));
        }
        t->load_s = MsBetween(t0, SteadyClock::now()) / 1000.0;
        for (int k : {kImdb, kStack}) {
          auto p = core::MakePlanner("guarded", s->models[static_cast<size_t>(k)].get(),
                                     s->envs[static_cast<size_t>(k)].dp.get(),
                                     PlannerOptions());
          QPS_CHECK(p.ok()) << p.status().ToString();
          s->planners.push_back(std::move(p).value());
        }
        // Warm-up: one fixed query per database, not part of the inputs.
        for (int k : {kImdb, kStack}) {
          const DbEnv& env = s->envs[static_cast<size_t>(k)];
          auto q = query::ParseSql(OneQuerySql(env, 3, 77 + k), *env.db);
          QPS_CHECK(q.ok());
          core::PlanRequestOptions ro;
          ro.seed = 77;
          QPS_CHECK(s->planners[static_cast<size_t>(k)]->Plan(*q, ro).ok());
        }
        return s;
      },
      &reps);
  SetSetupMetrics(reps, &out);
  std::vector<DbEnv*> envs = {&state->envs[kImdb], &state->envs[kStack]};

  // Inputs: imdb and stack mixed, 1-6 joins, constants drawn per query.
  std::vector<Input> inputs(kPassRequests);
  GenerateInputs(&inputs, [&](size_t i) {
    Input in;
    const uint64_t item = ItemSeed(args.seed, i);
    // Fixed strata: databases alternate and join counts cycle 1..6, so every
    // seed runs the same mix and only the queries' contents differ.
    in.db = static_cast<int>(i % 2);
    in.sql = OneQuerySql(*envs[static_cast<size_t>(in.db)], 1 + static_cast<int>(i / 2 % 6),
                         item);
    in.seed = RequestSeed(args.seed, i);
    return in;
  });

  SpanLog log;
  DirectLayer layer;
  std::vector<double> parse_us;
  std::vector<exec::Executor> executors;
  for (const DbEnv* env : envs) executors.emplace_back(*env->db, ServedExecOptions());
  const auto cache_before = CacheStats(state->models);

  // One request: parse, plan, validate, execute.
  auto serve = [&](size_t i, Sample* s) {
    const Input& in = inputs[i];
    s->db = in.db;
    s->seed = in.seed;
    s->traced = TracedRequest(args.trace, i);
    SpanLog* tl = s->traced ? &log : nullptr;
    const DbEnv& env = *envs[static_cast<size_t>(in.db)];
    core::Planner* planner = state->planners[static_cast<size_t>(in.db)].get();
    const int64_t req = static_cast<int64_t>(i);

    EvalProbe probe;
    probe.model = state->models[static_cast<size_t>(in.db)].get();
    probe.log = tl;
    probe.request = req;
    const auto t0 = SteadyClock::now();
    ScopedSpan root(tl, "request", -1, req);
    StatusOr<query::Query> q = Status::Internal("unparsed");
    {
      ScopedSpan span(tl, "parse", root.id(), req);
      q = query::ParseSql(in.sql, *env.db);
    }
    const auto t1 = SteadyClock::now();
    s->parse_us = MsBetween(t0, t1) * 1000.0;
    s->done = true;
    if (!q.ok()) {
      ledger.Fail("request " + std::to_string(i) + ": parse failed: " + q.status().ToString());
      return;
    }
    s->query = std::move(q).value();
    core::PlanRequestOptions ro;
    ro.seed = s->seed;
    StatusOr<core::PlanResult> r = Status::Internal("unplanned");
    {
      ScopedSpan span(tl, "plan", root.id(), req);
      probe.parent = span.id();
      if (s->traced) ro.evaluate = probe.Hook();
      r = planner->Plan(s->query, ro);
    }
    const auto t2 = SteadyClock::now();
    s->plan_ms = MsBetween(t1, t2);
    if (!r.ok()) {
      ledger.Fail("request " + std::to_string(i) + ": planning failed: " +
                  r.status().ToString());
      return;
    }
    Status valid;
    {
      ScopedSpan span(tl, "validate", root.id(), req);
      valid = query::ValidatePlan(s->query, *r->plan);
    }
    s->latency_ms = MsBetween(t0, SteadyClock::now());
    if (!valid.ok()) {
      ledger.Fail("request " + std::to_string(i) + ": invalid plan: " + valid.ToString());
      return;
    }
    s->used_neural = r->used_neural;
    s->rollouts = r->plans_evaluated;
    s->predicted_runtime_ms = r->node_stats.runtime_ms;
    s->plan = std::move(r->plan);
    {
      ScopedSpan span(tl, "execute", root.id(), req);
      s->ok = ExecuteServed(&executors[static_cast<size_t>(in.db)], s, &ledger, i);
    }
    s->query_ms = s->latency_ms + s->exec_ms;
    if (s->traced) layer.Add(probe, s->used_neural, s->plan_ms);
  };

  std::vector<Pass> passes;
  std::vector<double> pass_s;
  const auto start = SteadyClock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         MsBetween(start, SteadyClock::now()) / 1000.0 < args.seconds) {
    if (MsBetween(start, SteadyClock::now()) / 1000.0 >= kMaxRunSeconds) break;
    // Every pass starts from empty prediction caches, as the first did.
    for (const auto& m : state->models) m->cache()->Clear();
    Pass pass(inputs.size());
    const auto p0 = SteadyClock::now();
    for (size_t i = 0; i < inputs.size(); ++i) serve(i, &pass[i]);
    const double wall_s = MsBetween(p0, SteadyClock::now()) / 1000.0;
    // Throughput counts the caller's planning time (the requests' summed
    // latencies), not the execution of each plan, which query_ms_p50 covers.
    // Execution is memory-bound and heavy-tailed, and it swung with the host
    // more than planning did.
    double plan_s = 0.0;
    for (const Sample& s : pass) {
      plan_s += s.latency_ms / 1000.0;
      parse_us.push_back(s.parse_us);
    }
    std::printf("# pass %zu: %.3f s, %.3f s of it planning\n", passes.size(), wall_s, plan_s);
    pass_s.push_back(plan_s);
    passes.push_back(std::move(pass));
  }
  const auto cache_after = CacheStats(state->models);

  int64_t attempted = 0, failed = 0;
  for (const Pass& pass : passes) {
    for (const Sample& s : pass) {
      attempted += 1;
      if (!s.ok) failed += 1;
    }
  }
  ledger.Phase("measure", attempted, failed);
  CheckRepeats(passes, envs, &ledger);

  int64_t dp_routed = 0;
  std::vector<double> rollouts, exec_ms;
  for (const Sample& s : passes.front()) {
    if (s.ok && !s.used_neural) dp_routed += 1;
    if (s.ok && s.used_neural) rollouts.push_back(s.rollouts);
  }
  // Every request was executed inline: take exec time over all of them.
  for (const Pass& pass : passes) {
    for (const Sample& s : pass) {
      if (s.executed) exec_ms.push_back(s.exec_ms);
    }
  }

  SetLatencyMetrics(passes, pass_s, &out);
  std::vector<double> query_ms;
  for (double v : MediansAcrossPasses(PassValues(passes, &Sample::query_ms))) {
    if (!std::isnan(v)) query_ms.push_back(v);
  }
  out.Set("query_ms_p50", Median(query_ms));
  Quality quality = QualityPass(&passes.front(), passes, envs, &ledger);
  ledger.Phase("quality", quality.attempted, quality.failed);
  SetQualityMetrics(quality, &out);
  out.Set("exec.ms_p50", Median(exec_ms));

  const double n = static_cast<double>(passes.front().size());
  out.Set("query.parse_us_p50", Median(parse_us));
  out.Set("optimizer.dp_calls_per_req", Ratio(static_cast<double>(dp_routed), n));
  out.Set("optimizer.dp_ms_p50", Median(layer.dp_ms));
  out.Set("mcts.rollouts_per_req", Median(rollouts));
  SetDirectLayerMetrics(layer, &out);
  out.Set("predict.calls_per_req",
          Ratio(static_cast<double>(layer.calls), static_cast<double>(layer.neural)));
  out.Set("predict.plans_per_call",
          Ratio(static_cast<double>(layer.plans), static_cast<double>(layer.calls)));
  SetCacheMetrics(cache_before, cache_after, static_cast<size_t>(attempted), &out);
  for (const char* name :
       {"serve.queue_ms_p50", "serve.queue_ms_p99", "serve.plan_ms_p50",
        "rendezvous.mean_batch", "rendezvous.flushes_per_req",
        "rendezvous.plans_per_flush", "serve.shed_ratio", "serve.degraded_ratio",
        "serve.swap_ms_p50", "gen.lag_p99_ms"}) {
    out.Set(name, 0.0);  // no service and no schedule on this workload
  }
  SetTraceShares(log, &out);
  out.Set("peak_rss_mb", PeakRssMb());
  if (args.trace && !args.trace_out.empty()) log.WriteChromeJson(args.trace_out);
  out.Print(args.trace, &ledger);
  return ledger.correct() && ledger.failed() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Serving workloads.

struct ServeState {
  std::vector<DbEnv> envs;
  /// Every model instance that served, including swapped-out ones (kept
  /// alive so their cache counters can be read at the end).
  std::vector<std::shared_ptr<core::QpSeeker>> models;
  std::vector<int> tenant_db;
  std::vector<std::string> tenant_ids;
  std::unique_ptr<serve::ShardedPlanService> service;
  /// Direct planners over fresh model loads, for the replay check.
  std::vector<std::shared_ptr<core::QpSeeker>> ref_models;
  std::vector<std::unique_ptr<core::Planner>> ref_planners;
};

/// Builds the service. Its worker threads are created restricted to
/// `worker_cpus` (all CPUs when empty) and keep to them.
std::unique_ptr<ServeState> SetupServing(const Args& args, int tenants, int shards,
                                         int workers_per_shard, size_t max_pending,
                                         bool shed_to_baseline,
                                         const std::vector<int>& kinds,
                                         const std::vector<int>& worker_cpus, SetupTimes* t) {
  auto s = std::make_unique<ServeState>();
  SetupModels(kinds, args.work_dir, &s->envs, t);
  const auto t0 = SteadyClock::now();
  for (int i = 0; i < tenants; ++i) {
    const int db = kinds[static_cast<size_t>(i) % kinds.size()];
    s->tenant_db.push_back(db);
    s->tenant_ids.push_back("t" + std::to_string(i));
    s->models.push_back(LoadModel(s->envs[static_cast<size_t>(db)]));
  }
  for (int k : {kImdb, kStack}) {
    if (std::find(kinds.begin(), kinds.end(), k) == kinds.end()) {
      s->ref_models.push_back(nullptr);
      continue;
    }
    s->ref_models.push_back(LoadModel(s->envs[static_cast<size_t>(k)]));
  }
  t->load_s = MsBetween(t0, SteadyClock::now()) / 1000.0;
  for (int k : {kImdb, kStack}) {
    if (s->ref_models[static_cast<size_t>(k)] == nullptr) {
      s->ref_planners.push_back(nullptr);
      continue;
    }
    auto p = core::MakePlanner("guarded", s->ref_models[static_cast<size_t>(k)].get(),
                               s->envs[static_cast<size_t>(k)].dp.get(), PlannerOptions());
    QPS_CHECK(p.ok());
    s->ref_planners.push_back(std::move(p).value());
  }

  serve::ShardedPlanServiceOptions so;
  so.shards = shards;
  so.workers_per_shard = workers_per_shard;
  so.shard_max_queue = 0;
  const std::vector<int> own_cpus = AllowedCpus();
  if (!worker_cpus.empty()) PinThread(worker_cpus);
  auto svc = serve::ShardedPlanService::Create(so);
  if (!worker_cpus.empty()) PinThread(own_cpus);
  QPS_CHECK(svc.ok()) << svc.status().ToString();
  s->service = std::move(svc).value();
  for (int i = 0; i < tenants; ++i) {
    serve::TenantSpec spec;
    spec.tenant_id = s->tenant_ids[static_cast<size_t>(i)];
    spec.deps.planner_name = "guarded";
    spec.deps.model = s->models[static_cast<size_t>(i)];
    spec.deps.baseline = s->envs[static_cast<size_t>(s->tenant_db[static_cast<size_t>(i)])].dp.get();
    spec.deps.guard_options = PlannerOptions();
    spec.quota.max_pending = max_pending;
    spec.quota.shed_to_baseline = shed_to_baseline;
    Status st = s->service->AddTenant(std::move(spec));
    QPS_CHECK(st.ok()) << st.ToString();
  }
  // Warm-up: one fixed query per tenant, not part of the inputs.
  for (int i = 0; i < tenants; ++i) {
    const DbEnv& env = s->envs[static_cast<size_t>(s->tenant_db[static_cast<size_t>(i)])];
    auto q = query::ParseSql(OneQuerySql(env, 3, 77 + static_cast<uint64_t>(i)), *env.db);
    QPS_CHECK(q.ok());
    serve::PlanRequest req;
    req.query = std::move(q).value();
    req.tenant_id = s->tenant_ids[static_cast<size_t>(i)];
    req.seed = 77;
    QPS_CHECK(s->service->Submit(std::move(req)).get().ok());
  }
  return s;
}

/// Sums the tenants' service stats.
serve::PlanService::Stats TotalStats(const ServeState& s) {
  serve::PlanService::Stats total;
  for (const auto& id : s.tenant_ids) {
    auto st = s.service->TenantStats(id);
    QPS_CHECK(st.ok());
    total.submitted += st->submitted;
    total.completed += st->completed;
    total.errors += st->errors;
    total.shed += st->shed;
    total.shed_degraded += st->shed_degraded;
    total.batching.flushes += st->batching.flushes;
    total.batching.fused_queries += st->batching.fused_queries;
    total.batching.fused_plans += st->batching.fused_plans;
  }
  return total;
}

/// Metrics the two serving workloads derive the same way.
void FinishServing(const Args& args, ServeState* state, std::vector<Pass>* passes,
                   const std::vector<double>& pass_s, std::vector<Sample>* quality_set,
                   const serve::PlanService::Stats& before,
                   const std::vector<core::PlanPredictionCache::Stats>& cache_before,
                   const SpanLog& log, Ledger* ledger, Output* out) {
  const auto after = TotalStats(*state);
  const auto cache_after = CacheStats(state->models);
  std::vector<DbEnv*> envs = {&state->envs[kImdb], &state->envs[kStack]};

  int64_t failed = 0, done = 0, degraded = 0;
  std::vector<double> parse_us, queue_ms, plan_ms, rollouts;
  for (const Pass& pass : *passes) {
    for (const Sample& s : pass) {
      if (!s.done) continue;
      done += 1;
      if (!s.ok) {
        failed += 1;
        continue;
      }
      if (s.degraded) degraded += 1;
      parse_us.push_back(s.parse_us);
      plan_ms.push_back(s.plan_ms);
      queue_ms.push_back(std::max(0.0, s.latency_ms - s.plan_ms));
      if (s.used_neural) rollouts.push_back(s.rollouts);
    }
  }
  ledger->Phase("measure", done, failed);
  CheckRepeats(*passes, envs, ledger);
  SetLatencyMetrics(*passes, pass_s, out);

  std::vector<core::Planner*> planners;
  std::vector<const core::QpSeeker*> models;
  for (size_t k = 0; k < 2; ++k) {
    planners.push_back(state->ref_planners[k].get());
    models.push_back(state->ref_models[k].get());
  }
  DirectLayer replay;
  ReplayCheck(passes->front(), planners, models, envs, args.seed, ledger, &replay);

  Quality quality = QualityPass(quality_set, *passes, envs, ledger);
  ledger->Phase("quality", quality.attempted, quality.failed);
  SetQualityMetrics(quality, out);
  out->Set("query_ms_p50", Median(quality.query_ms));

  const double n = static_cast<double>(std::max<int64_t>(done, 1));
  const double flushes = static_cast<double>(after.batching.flushes - before.batching.flushes);
  const double fused_q =
      static_cast<double>(after.batching.fused_queries - before.batching.fused_queries);
  const double fused_p =
      static_cast<double>(after.batching.fused_plans - before.batching.fused_plans);
  out->Set("query.parse_us_p50", Median(parse_us));
  out->Set("optimizer.dp_calls_per_req",
           Ratio(static_cast<double>(done - static_cast<int64_t>(rollouts.size())), n));
  out->Set("optimizer.dp_ms_p50", Median(replay.dp_ms));
  out->Set("mcts.rollouts_per_req", Median(rollouts));
  SetDirectLayerMetrics(replay, out);
  out->Set("predict.calls_per_req", Ratio(flushes, static_cast<double>(rollouts.size())));
  out->Set("predict.plans_per_call", Ratio(fused_p, flushes));
  SetCacheMetrics(cache_before, cache_after, static_cast<size_t>(done), out);
  out->Set("serve.queue_ms_p50", Median(queue_ms));
  out->Set("serve.queue_ms_p99", SupportedPercentile(queue_ms, 99.0));
  out->Set("serve.plan_ms_p50", Median(plan_ms));
  out->Set("rendezvous.mean_batch", Ratio(fused_q, flushes));
  out->Set("rendezvous.flushes_per_req", Ratio(flushes, n));
  out->Set("rendezvous.plans_per_flush", Ratio(fused_p, flushes));
  out->Set("serve.shed_ratio",
           Ratio(static_cast<double>(after.shed - before.shed), n));
  out->Set("serve.degraded_ratio", Ratio(static_cast<double>(degraded), n));
  SetTraceShares(log, out);
  out->Set("peak_rss_mb", PeakRssMb());
  if (args.trace && !args.trace_out.empty()) log.WriteChromeJson(args.trace_out);
}

/// A submitted serving request whose answer is outstanding.
struct Pending {
  size_t index = 0;
  int64_t root = -1;  // "request" span, traced requests only
  int64_t wait = -1;  // "submit_resolve" span
  std::future<StatusOr<core::PlanResult>> reply;
};

/// Client side of a serving request, first half: parse the SQL text and
/// submit it. Returns nothing, with the request done and failed, when the
/// text does not parse.
std::optional<Pending> SubmitOne(ServeState* state, const Input& in, size_t index,
                                 SpanLog* tl, Sample* s, Ledger* ledger,
                                 std::mutex* ledger_mu) {
  const DbEnv& env = state->envs[static_cast<size_t>(in.db)];
  const int64_t req = static_cast<int64_t>(index);
  Pending p;
  p.index = index;
  if (tl != nullptr) p.root = tl->Begin("request", -1, req);
  const auto p0 = SteadyClock::now();
  StatusOr<query::Query> q = Status::Internal("unparsed");
  {
    ScopedSpan span(tl, "parse", p.root, req);
    q = query::ParseSql(in.sql, *env.db);
  }
  s->parse_us = MsBetween(p0, SteadyClock::now()) * 1000.0;
  s->db = in.db;
  s->seed = in.seed;
  if (!q.ok()) {
    std::lock_guard<std::mutex> lock(*ledger_mu);
    ledger->Fail("request " + std::to_string(index) + ": parse failed: " +
                 q.status().ToString());
    s->done = true;
    if (tl != nullptr) tl->End(p.root);
    return std::nullopt;
  }
  s->query = *q;
  serve::PlanRequest request;
  request.query = std::move(q).value();
  request.tenant_id = state->tenant_ids[static_cast<size_t>(in.tenant)];
  request.seed = in.seed;
  if (tl != nullptr) p.wait = tl->Begin("submit_resolve", p.root, req);
  p.reply = state->service->Submit(std::move(request));
  return p;
}

/// Second half: take the answer, validate it and record the request. `t0`
/// is when the request started (closed loop) or was due (open loop).
void FinishOne(Pending* p, SteadyClock::time_point t0, SpanLog* tl, Sample* s,
               Ledger* ledger, std::mutex* ledger_mu) {
  const int64_t req = static_cast<int64_t>(p->index);
  StatusOr<core::PlanResult> r = p->reply.get();
  if (tl != nullptr) tl->End(p->wait);
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(*ledger_mu);
    ledger->Fail("request " + std::to_string(p->index) + ": " + why);
  };
  Status valid;
  if (r.ok()) {
    ScopedSpan span(tl, "validate", p->root, req);
    valid = query::ValidatePlan(s->query, *r->plan);
  }
  s->latency_ms = MsBetween(t0, SteadyClock::now());
  s->done = true;
  if (tl != nullptr) tl->End(p->root);
  if (!r.ok()) {
    fail("serving failed: " + r.status().ToString());
    return;
  }
  if (!valid.ok()) {
    fail("invalid plan: " + valid.ToString());
    return;
  }
  s->ok = true;
  s->plan_ms = r->plan_ms;
  s->used_neural = r->used_neural;
  s->degraded = r->fallback_reason.rfind("shed", 0) == 0;
  s->rollouts = r->plans_evaluated;
  s->predicted_runtime_ms = r->node_stats.runtime_ms;
  s->plan = std::move(r->plan);
}

// serve-closed: one imdb tenant, nproc closed-loop clients, 3-5 joins so
// every request runs MCTS through the rendezvous. The tenant gets one
// worker. Every fused forward is serialized, so more workers add no
// throughput; on a shared 4-vCPU host, 2 or 4 workers were slower (79-137
// against 140-148 requests/s) and swung with the host's steal time, which
// rose as soon as the run used more vCPUs. The other clients keep requests
// queued at admission at all times. The worker has a CPU of its own and the
// clients keep to the others, so a client woken by a reply never displaces
// the worker and the worker's caches stay warm.
int RunServeClosed(const Args& args) {
  Ledger ledger;
  Output out;
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = 1;
  const std::vector<int> cpus = AllowedCpus();
  const bool own_cpu = cpus.size() >= 2;
  const std::vector<int> worker_cpus = own_cpu ? std::vector<int>{cpus.back()}
                                               : std::vector<int>{};
  std::vector<SetupTimes> reps;
  auto state = RepeatSetup<ServeState>(
      [&](SetupTimes* t) {
        return SetupServing(args, 1, 1, workers, static_cast<size_t>(4 * cores), false,
                            {kImdb}, worker_cpus, t);
      },
      &reps);
  SetSetupMetrics(reps, &out);
  if (own_cpu) PinThread({cpus.begin(), cpus.end() - 1});

  std::vector<Input> inputs(kPassRequests);
  GenerateInputs(&inputs, [&](size_t i) {
    Input in;
    in.db = kImdb;
    in.sql = OneQuerySql(state->envs[kImdb], 3 + static_cast<int>(i % 3),
                         ItemSeed(args.seed, i));
    in.seed = RequestSeed(args.seed, i);
    return in;
  });

  SpanLog log;
  std::mutex ledger_mu;
  const auto before = TotalStats(*state);
  const auto cache_before = CacheStats(state->models);
  std::vector<Pass> passes;
  std::vector<double> pass_s;
  const auto start = SteadyClock::now();
  while (static_cast<int>(passes.size()) < kMinPasses ||
         MsBetween(start, SteadyClock::now()) / 1000.0 < args.seconds) {
    if (MsBetween(start, SteadyClock::now()) / 1000.0 >= kMaxRunSeconds) break;
    // Every pass starts from an empty prediction cache, as the first did.
    for (const auto& m : state->models) m->cache()->Clear();
    Pass pass(inputs.size());
    std::atomic<size_t> next{0};
    const auto p0 = SteadyClock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < cores; ++c) {
      clients.emplace_back([&] {
        for (size_t i = next.fetch_add(1); i < pass.size(); i = next.fetch_add(1)) {
          Sample& s = pass[i];
          s.traced = TracedRequest(args.trace, i);
          SpanLog* tl = s.traced ? &log : nullptr;
          const auto t0 = SteadyClock::now();
          auto p = SubmitOne(state.get(), inputs[i], i, tl, &s, &ledger, &ledger_mu);
          if (p) FinishOne(&*p, t0, tl, &s, &ledger, &ledger_mu);
        }
      });
    }
    for (auto& t : clients) t.join();
    pass_s.push_back(MsBetween(p0, SteadyClock::now()) / 1000.0);
    std::printf("# pass %zu: %.3f s\n", passes.size(), pass_s.back());
    passes.push_back(std::move(pass));
  }

  FinishServing(args, state.get(), &passes, pass_s, &passes.front(), before, cache_before, log,
                &ledger, &out);
  out.Set("serve.swap_ms_p50", 0.0);  // no control-plane writes on this workload
  out.Set("gen.lag_p99_ms", 0.0);     // closed loop: no schedule to lag behind
  out.Print(args.trace, &ledger);
  return ledger.correct() && ledger.failed() == 0 ? 0 : 1;
}

// serve-open-skewed: one generator on a seeded Poisson schedule, 8 tenants
// over 2 shards (one worker each, as in serve-closed) with Zipfian
// popularity, template-heavy traffic, quotas with shed_to_baseline, and a
// hot-tenant model swap every kSwapEvery arrivals. Every pass replays the
// same schedule from the same cache state: the other tenants' caches hold
// every query of their pools, and the hot tenant starts on a cold model.
int RunServeOpenSkewed(const Args& args) {
  Ledger ledger;
  Output out;
  // The generator gets a CPU of its own. Sharing one, a shard worker woken
  // by Submit is placed on the generator's CPU (the scheduler favours the
  // waker's CPU), and the generator stalls for a whole plan while later
  // arrivals fall due. The service's threads keep to the other CPUs.
  const std::vector<int> cpus = AllowedCpus();
  const bool own_cpu = cpus.size() >= 2;
  const std::vector<int> worker_cpus =
      own_cpu ? std::vector<int>(cpus.begin() + 1, cpus.end()) : std::vector<int>{};
  std::vector<SetupTimes> reps;
  auto state = RepeatSetup<ServeState>(
      [&](SetupTimes* t) {
        return SetupServing(args, kTenants, kShards, 1, kTenantMaxPending,
                            true, {kImdb, kStack}, worker_cpus, t);
      },
      &reps);
  SetSetupMetrics(reps, &out);

  // Per-tenant query pools: a few templates with a few constant variants,
  // so exact queries recur across requests. The pools are the same for
  // every seed; the seed draws the arrivals, the tenant and query of each,
  // and the planning seeds. With only 256 distinct queries in play, pools
  // drawn per seed made the tail and the quality figures follow whichever
  // heavy queries a seed happened to draw. Template k has 2 + k % 4 joins,
  // and is kept only when all of its variants are runnable. The screening
  // runs on one thread: executions on several would overlap their large
  // intermediates at random, and peak_rss_mb with them.
  std::vector<std::vector<std::string>> tenant_sql(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    const DbEnv& env = state->envs[static_cast<size_t>(state->tenant_db[static_cast<size_t>(t)])];
    auto& pool = tenant_sql[static_cast<size_t>(t)];
    for (int k = 0; k < kTemplatesPerTenant; ++k) {
      const uint64_t item = static_cast<uint64_t>(t) * kTemplatesPerTenant + k;
      for (uint64_t attempt = 0;; ++attempt) {
        QPS_CHECK(attempt < 1000) << "no runnable template for tenant " << t;
        Rng rng(ItemSeed(kTemplateSeed, item * 1000 + attempt));
        eval::WorkloadOptions wo;
        wo.num_queries = kVariantsPerTemplate;
        wo.num_templates = 1;
        wo.min_joins = wo.max_joins = 2 + k % 4;
        const auto variants = eval::GenerateWorkload(*env.db, wo, &rng);
        if (std::all_of(variants.begin(), variants.end(),
                        [&](const query::Query& q) { return Runnable(env, q); })) {
          for (const auto& q : variants) pool.push_back(q.ToSql(*env.db));
          break;
        }
      }
    }
  }
  const size_t count = kPassRequests;
  const std::vector<double> due = PoissonSchedule(args.seed, kOpenRate, count);
  const ZipfPicker zipf(kTenants, kZipfSkew);
  std::vector<Input> inputs(count);
  SplitMix pick(Mix64(args.seed ^ 0x21bfULL));
  // A recurring query keeps its planning seed, as a deployment with
  // deterministic planning would: its repeats can be served from the
  // prediction cache. Like the pools, the planning seeds are the same for
  // every --seed, so every run plans the same 256 (query, seed) pairs.
  auto query_seed = [&](int tenant, size_t q) {
    return RequestSeed(kTemplateSeed, static_cast<size_t>(tenant) * tenant_sql[0].size() + q);
  };
  for (size_t i = 0; i < count; ++i) {
    Input& in = inputs[i];
    in.tenant = zipf.Pick(pick.Uniform());
    in.db = state->tenant_db[static_cast<size_t>(in.tenant)];
    const auto& pool = tenant_sql[static_cast<size_t>(in.tenant)];
    const size_t q = pick.Next() % pool.size();
    in.sql = pool[q];
    in.seed = query_seed(in.tenant, q);
  }

  // Warm-up, not measured: every query of every tenant once, so the caches
  // hold each tenant's whole pool and a pass misses only after a swap. Its
  // plans are the ones the quality figures execute: every pair once.
  std::mutex ledger_mu;
  std::vector<Sample> warmup;
  for (int t = 0; t < kTenants; ++t) {
    const auto& pool = tenant_sql[static_cast<size_t>(t)];
    for (size_t q = 0; q < pool.size(); ++q) {
      Input in;
      in.tenant = t;
      in.db = state->tenant_db[static_cast<size_t>(t)];
      in.sql = pool[q];
      in.seed = query_seed(t, q);
      Sample s;
      const auto t0 = SteadyClock::now();
      auto pending = SubmitOne(state.get(), in, warmup.size(), nullptr, &s, &ledger, &ledger_mu);
      if (pending) FinishOne(&*pending, t0, nullptr, &s, &ledger, &ledger_mu);
      warmup.push_back(std::move(s));
    }
  }
  ledger.Phase("warm-up", static_cast<int64_t>(warmup.size()),
               std::count_if(warmup.begin(), warmup.end(),
                             [](const Sample& s) { return !s.ok; }));

  // The hot tenant swaps between two fresh loads of its checkpoint, loaded
  // here so no load competes with a pass for CPU, and emptied before every
  // pass. A pass starts with the first installed (outside the pass) and
  // swaps to the second after kSwapEvery arrivals.
  std::vector<std::shared_ptr<core::QpSeeker>> spare;
  for (int k = 0; k < 2; ++k) {
    spare.push_back(LoadModel(state->envs[static_cast<size_t>(state->tenant_db[0])]));
  }
  const double pass_seconds = static_cast<double>(count) / kOpenRate;
  const int pass_count =
      std::max(kMinPasses, static_cast<int>(std::ceil(args.seconds / pass_seconds)));

  if (own_cpu) PinThread({cpus[0]});
  SpanLog log;
  const auto before = TotalStats(*state);
  auto cache_before = CacheStats(state->models);
  const auto spare_stats = CacheStats(spare);
  cache_before.insert(cache_before.end(), spare_stats.begin(), spare_stats.end());
  std::vector<Pass> passes;
  std::vector<double> pass_s, swap_ms, lag_ms;
  std::vector<Status> swap_status;

  // Generator: one thread on a CPU of its own sends each request when it
  // is due and collects the answers by polling their futures, so the
  // service's own hand-off to a shard worker is the only one on a request's
  // path. It never sleeps: a wake-up from sleep can come milliseconds late
  // on a shared host, and that lateness would be charged to the request.
  // The in-pass swap runs on a thread of its own, so a swap waiting out
  // in-flight plans delays no arrival.
  for (int p = 0; p < pass_count; ++p) {
    for (const auto& m : spare) m->cache()->Clear();
    Status st = state->service->SwapTenantModel(state->tenant_ids[0], spare[0]);
    if (!st.ok()) ledger.Fail("SwapTenantModel failed: " + st.ToString());
    Pass pass(count);
    const auto start = SteadyClock::now();
    auto due_at = [&](size_t i) {
      return start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double, std::milli>(due[i]));
    };
    std::vector<Pending> inflight;
    std::thread swapper;
    double swap_t0 = 0.0, swap_t1 = 0.0;
    size_t next = 0;
    while (next < count || !inflight.empty()) {
      bool progressed = false;
      for (size_t k = 0; k < inflight.size();) {
        if (inflight[k].reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++k;
          continue;
        }
        Sample& s = pass[inflight[k].index];
        FinishOne(&inflight[k], due_at(inflight[k].index), s.traced ? &log : nullptr, &s,
                  &ledger, &ledger_mu);
        inflight[k] = std::move(inflight.back());
        inflight.pop_back();
        progressed = true;
      }
      if (next < count && SteadyClock::now() >= due_at(next)) {
        const size_t i = next++;
        Sample& s = pass[i];
        s.traced = TracedRequest(args.trace, i);
        s.lag_ms = TimeFromDue(due[i], MsBetween(start, SteadyClock::now()), 0.0).lag_ms;
        auto pending = SubmitOne(state.get(), inputs[i], i, s.traced ? &log : nullptr, &s,
                                 &ledger, &ledger_mu);
        if (pending) inflight.push_back(std::move(*pending));
        if (i + 1 == kSwapEvery) {
          swapper = std::thread([&] {
            swap_t0 = log.NowMs();
            swap_status.push_back(state->service->SwapTenantModel(state->tenant_ids[0], spare[1]));
            swap_t1 = log.NowMs();
          });
        }
        progressed = true;
      }
      if (!progressed) std::this_thread::yield();
    }
    if (swapper.joinable()) {
      swapper.join();
      swap_ms.push_back(swap_t1 - swap_t0);
      if (args.trace) log.Add("swap", -1, -1, swap_t0, swap_t1);
    }
    pass_s.push_back(MsBetween(start, SteadyClock::now()) / 1000.0);
    std::printf("# pass %d: %.3f s\n", p, pass_s.back());
    for (const Sample& s : pass) lag_ms.push_back(s.lag_ms);
    passes.push_back(std::move(pass));
  }
  for (const Status& st : swap_status) {
    if (!st.ok()) ledger.Fail("SwapTenantModel failed: " + st.ToString());
  }

  // Spare models follow the serving ones, as in cache_before.
  for (const auto& m : spare) state->models.push_back(m);
  FinishServing(args, state.get(), &passes, pass_s, &warmup, before, cache_before, log, &ledger,
                &out);
  out.Set("serve.swap_ms_p50", Median(swap_ms));
  out.Set("gen.lag_p99_ms", SupportedPercentile(lag_ms, 99.0));
  std::printf("# open loop: %d passes of %zu arrivals at %.1f/s, %zu swaps, lag p99 %.3f ms\n",
              pass_count, count, kOpenRate, swap_ms.size(), SupportedPercentile(lag_ms, 99.0));
  out.Print(args.trace, &ledger);
  return ledger.correct() && ledger.failed() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--list") {
      a->list = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: e2e_driver --workload W --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (args.list) {
    for (const char* w : Workloads()) std::printf("workload %s\n", w);
    for (const auto& d : EndToEndCatalog()) std::printf("end_to_end %s %s\n", d.name, d.unit);
    for (const auto& d : PerLayerCatalog()) std::printf("per_layer %s %s\n", d.name, d.unit);
    return 0;
  }
  SetLogLevel(LogLevel::kWarning);
  ::mkdir(args.work_dir.c_str(), 0755);
  if (args.workload == "plan-direct") return RunPlanDirect(args);
  if (args.workload == "serve-closed") return RunServeClosed(args);
  if (args.workload == "serve-open-skewed") return RunServeOpenSkewed(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
