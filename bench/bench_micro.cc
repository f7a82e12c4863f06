// Copyright 2026 The QPSeeker Authors
//
// google-benchmark micro-benchmarks for the performance-critical pieces:
// the autodiff engine (matmul / LSTM / attention forward+backward), the
// executor's operators, the baseline DP planner, TabSketch encoding, and
// MCTS rollout throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/mcts.h"
#include "core/plan_cache.h"
#include "core/qpseeker.h"
#include "exec/executor.h"
#include "nn/gemm_int8.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/quant.h"
#include "obs/window.h"
#include "optimizer/planner.h"
#include "query/parser.h"
#include "sampling/plan_sampler.h"
#include "storage/schemas.h"
#include "serve/retry.h"
#include "tabert/tabsketch.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace qps {
namespace {

// ---- nn ---------------------------------------------------------------

void BM_MatMulForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(n, n, &rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, &rng);
  nn::Tensor out(n, n);
  for (auto _ : state) {
    nn::Gemm(nn::GemmLayout::kNone, a, b, &out, /*accumulate=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulForward)->Arg(32)->Arg(64)->Arg(128);

// ---- tiled GEMM vs. the pre-tiling scalar kernel ------------------------
//
// ScalarBaselineMatMul is the seed tree's matmul verbatim (i-p-j loops
// with a zero-skip), compiled at the default -O2 like the seed. The tiled
// kernel, nn::Gemm, runs the (batch x d) @ (d x d) shapes
// the batched model forward produces: batch = plans per MCTS evaluation,
// d = hidden width.

void ScalarBaselineMatMul(const nn::Tensor& a, const nn::Tensor& b,
                          nn::Tensor* out) {
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  out->Fill(0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = out->data() + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void GemmArgs(benchmark::internal::Benchmark* bench) {
  for (int64_t batch : {1, 8, 64}) {
    for (int64_t d : {64, 128, 256}) bench->Args({batch, d});
  }
}

/// TSC ticks per nanosecond, calibrated once against steady_clock over a
/// ~50 ms busy window. Returns 0 when no invariant TSC is available, in
/// which case the bytes/cycle counter is skipped (GB/s still reports).
double TscTicksPerNs() {
#if defined(__x86_64__) || defined(__i386__)
  static const double ticks_per_ns = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = __rdtsc();
    // Busy-wait ~50 ms: long enough to swamp clock-read jitter, short
    // enough to not matter at benchmark startup.
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(50)) {
    }
    const uint64_t c1 = __rdtsc();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    return ns > 0 ? static_cast<double>(c1 - c0) / ns : 0.0;
  }();
  return ticks_per_ns;
#else
  return 0.0;
#endif
}

/// GFLOPS plus memory-traffic counters for an (m x k) @ (k x n) GEMM.
/// `bytes_per_call` is the minimal streamed traffic — A + B + C once each —
/// so bytes/cycle compares kernels by how much useful data they move per
/// core clock: f32 moves 4 bytes/element everywhere, int8 moves 1 byte for
/// A and B and 4 for the f32 output.
void SetGemmCounters(benchmark::State& state, int64_t m, int64_t k, int64_t n,
                     int64_t bytes_per_call) {
  const double iters = static_cast<double>(state.iterations());
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(m * k * n) * iters * 1e-9,
      benchmark::Counter::kIsRate);
  const double bytes = static_cast<double>(bytes_per_call) * iters;
  state.counters["GB/s"] =
      benchmark::Counter(bytes * 1e-9, benchmark::Counter::kIsRate);
  const double ticks_per_ns = TscTicksPerNs();
  if (ticks_per_ns > 0) {
    // benchmark reports rates per second of wall time; dividing the per-
    // second byte rate by ticks/sec yields bytes per TSC cycle.
    state.counters["bytes/cycle"] =
        benchmark::Counter(bytes / ticks_per_ns * 1e-9,
                           benchmark::Counter::kIsRate);
  }
}

int64_t F32GemmBytes(int64_t m, int64_t k, int64_t n) {
  return (m * k + k * n + m * n) * static_cast<int64_t>(sizeof(float));
}

int64_t Int8GemmBytes(int64_t m, int64_t k, int64_t n) {
  return m * k + k * n + m * n * static_cast<int64_t>(sizeof(float));
}

void BM_GemmScalarBaseline(benchmark::State& state) {
  const int64_t batch = state.range(0), d = state.range(1);
  Rng rng(21);
  nn::Tensor a = nn::Tensor::Randn(batch, d, &rng);
  nn::Tensor b = nn::Tensor::Randn(d, d, &rng);
  nn::Tensor out(batch, d);
  for (auto _ : state) {
    ScalarBaselineMatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetGemmCounters(state, batch, d, d, F32GemmBytes(batch, d, d));
}
BENCHMARK(BM_GemmScalarBaseline)->Apply(GemmArgs);

void BM_GemmTiled(benchmark::State& state) {
  const int64_t batch = state.range(0), d = state.range(1);
  Rng rng(21);
  nn::Tensor a = nn::Tensor::Randn(batch, d, &rng);
  nn::Tensor b = nn::Tensor::Randn(d, d, &rng);
  nn::Tensor out(batch, d);
  for (auto _ : state) {
    nn::Gemm(nn::GemmLayout::kNone, a, b, &out, /*accumulate=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  SetGemmCounters(state, batch, d, d, F32GemmBytes(batch, d, d));
}
BENCHMARK(BM_GemmTiled)->Apply(GemmArgs);

// Int8 serving path at the widths the model forward actually runs
// (d = hidden width 128/256, batch = plans per MCTS evaluation). Each
// iteration includes per-row activation quantization — the full cost a
// Linear layer pays per call — so the ratio against BM_GemmTiled is the
// honest end-to-end speedup, not just the inner kernel. Run once with
// QPS_FORCE_SCALAR=1 to measure the portable fallback.

void Int8GemmArgs(benchmark::internal::Benchmark* bench) {
  for (int64_t batch : {1, 8, 64}) {
    for (int64_t d : {128, 256}) bench->Args({batch, d});
  }
}

void BM_GemmInt8(benchmark::State& state) {
  const int64_t batch = state.range(0), d = state.range(1);
  Rng rng(21);
  nn::Tensor a = nn::Tensor::Randn(batch, d, &rng);
  nn::Tensor w = nn::Tensor::Randn(d, d, &rng);
  const nn::QuantizedTensor q =
      nn::QuantizeWeights(w, nn::QuantScheme::kPerTensor);
  const nn::PackedQuantWeights packed = nn::PackForGemm(q);
  std::vector<float> bias(static_cast<size_t>(d), 0.125f);
  nn::Tensor out(batch, d);
  nn::QuantizedActs acts;
  for (auto _ : state) {
    nn::QuantizeActivationsPerRow(a, &acts);
    nn::GemmInt8(acts, packed, bias.data(), &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(nn::ActiveInt8Kernel());
  SetGemmCounters(state, batch, d, d, Int8GemmBytes(batch, d, d));
}
BENCHMARK(BM_GemmInt8)->Apply(Int8GemmArgs);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::Mlp mlp(64, 128, 32, 3, &rng);
  nn::Tensor in = nn::Tensor::Randn(1, 64, &rng);
  for (auto _ : state) {
    mlp.ZeroGrad();
    nn::Var loss = nn::SumAll(nn::Square(mlp.Forward(nn::Constant(in))));
    nn::Backward(loss);
    benchmark::DoNotOptimize(loss->value(0, 0));
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_LstmCellStep(benchmark::State& state) {
  Rng rng(3);
  nn::LstmCell cell(139, 64, &rng);
  nn::Tensor in = nn::Tensor::Randn(1, 139, &rng);
  auto st = cell.InitialState();
  for (auto _ : state) {
    auto next = cell.Forward(nn::Constant(in), st);
    benchmark::DoNotOptimize(next.h->value(0, 0));
  }
}
BENCHMARK(BM_LstmCellStep);

// The inference tree-LSTM step at the plan encoder's ci widths (139 -> 64)
// over `range(0)` rows: the gate GEMM plus the sigmoid/tanh span kernels.
void BM_LstmCellForwardTensor(benchmark::State& state) {
  Rng rng(3);
  const int64_t batch = state.range(0);
  nn::LstmCell cell(139, 64, &rng);
  const nn::Tensor in = nn::Tensor::Randn(batch, 139, &rng);
  nn::Tensor h(batch, 64), c(batch, 64);
  for (auto _ : state) {
    cell.ForwardTensor(in, &h, &c);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LstmCellForwardTensor)->Arg(1)->Arg(4)->Arg(16);

// Inference attention for `range(0)` plans of 9 nodes each (a 5-relation
// plan) over a 64-row pool of projected keys and values, at ci widths:
// one AttendRows call, as EncodeQepRows makes per PredictPlansMulti call.
void BM_AttendRows(benchmark::State& state) {
  Rng rng(4);
  const int plans = static_cast<int>(state.range(0));
  nn::MultiHeadCrossAttention attn(64, 64, 4, 16, 128, &rng);
  nn::Tensor q_heads, keys, values, out;
  attn.ProjectQuery(nn::Tensor::Randn(1, 64, &rng), &q_heads);
  attn.ProjectContext(nn::Tensor::Randn(64, 64, &rng), &keys, &values);
  std::vector<std::vector<int>> rows(static_cast<size_t>(plans), std::vector<int>(9));
  for (auto& plan : rows) {
    for (int& r : plan) r = static_cast<int>(rng.UniformInt(0, 63));
  }
  for (auto _ : state) {
    attn.AttendRows(q_heads, keys.data(), values.data(), rows, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * plans);
}
BENCHMARK(BM_AttendRows)->Arg(1)->Arg(4)->Arg(16);

void BM_CrossAttention(benchmark::State& state) {
  Rng rng(4);
  const int64_t nodes = state.range(0);
  nn::MultiHeadCrossAttention attn(64, 64, 4, 16, 128, &rng);
  nn::Var q = nn::Constant(nn::Tensor::Randn(1, 64, &rng));
  nn::Var ctx = nn::Constant(nn::Tensor::Randn(nodes, 64, &rng));
  for (auto _ : state) {
    nn::Var out = attn.Forward(q, ctx);
    benchmark::DoNotOptimize(out->value(0, 0));
  }
}
BENCHMARK(BM_CrossAttention)->Arg(5)->Arg(15)->Arg(31);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(5);
  nn::Mlp mlp(64, 128, 32, 3, &rng);
  nn::Adam adam(mlp.Parameters(), 1e-3f);
  nn::Tensor in = nn::Tensor::Randn(1, 64, &rng);
  nn::Var loss = nn::SumAll(nn::Square(mlp.Forward(nn::Constant(in))));
  nn::Backward(loss);
  for (auto _ : state) {
    adam.Step();
  }
}
BENCHMARK(BM_AdamStep);

// ---- storage / exec / optimizer ----------------------------------------

struct ExecFixture {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<stats::DatabaseStats> stats;
  query::Query two_join;
  query::Query filter_only;

  static ExecFixture& Get() {
    static ExecFixture* f = [] {
      auto* fx = new ExecFixture();
      Rng rng(1);
      fx->db = storage::BuildDatabase(storage::ToySpec(), 2000, &rng).value();
      fx->stats = stats::DatabaseStats::Analyze(*fx->db);
      fx->two_join = query::ParseSql(
                         "SELECT COUNT(*) FROM a, b, c WHERE b.b1 = a.id AND "
                         "c.c1 = b.id AND a.a2 < 6;",
                         *fx->db)
                         .value();
      fx->filter_only =
          query::ParseSql("SELECT COUNT(*) FROM b WHERE b.b3 >= 3;", *fx->db).value();
      return fx;
    }();
    return *f;
  }
};

void BM_SeqScanExecution(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto plan = BuildLeftDeepPlan(fx.filter_only, {0}, {query::OpType::kSeqScan}, {});
  exec::Executor ex(*fx.db);
  for (auto _ : state) {
    auto card = ex.Execute(fx.filter_only, plan.get());
    benchmark::DoNotOptimize(card.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          fx.db->table(fx.db->TableIndex("b")).num_rows());
}
BENCHMARK(BM_SeqScanExecution);

void BM_HashJoinExecution(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto plan = BuildLeftDeepPlan(
      fx.two_join, {0, 1, 2},
      {query::OpType::kSeqScan, query::OpType::kSeqScan, query::OpType::kSeqScan},
      {query::OpType::kHashJoin, query::OpType::kHashJoin});
  exec::Executor ex(*fx.db);
  for (auto _ : state) {
    auto card = ex.Execute(fx.two_join, plan.get());
    benchmark::DoNotOptimize(card.ok());
  }
}
BENCHMARK(BM_HashJoinExecution);

void BM_AnalyzeDatabase(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  for (auto _ : state) {
    auto stats = stats::DatabaseStats::Analyze(*fx.db);
    benchmark::DoNotOptimize(stats->num_tables());
  }
}
BENCHMARK(BM_AnalyzeDatabase);

void BM_PlannerDp(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  optimizer::Planner planner(*fx.db, *fx.stats);
  for (auto _ : state) {
    auto plan = planner.Plan(fx.two_join);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlannerDp);

void BM_PlanSampling(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  optimizer::CardinalityEstimator cards(*fx.db, *fx.stats);
  sampling::PlanSampler sampler(*fx.db, cards);
  Rng rng(7);
  for (auto _ : state) {
    auto plans = sampler.SamplePlans(fx.two_join, &rng);
    benchmark::DoNotOptimize(plans.size());
  }
}
BENCHMARK(BM_PlanSampling);

// ---- tabert -------------------------------------------------------------

void BM_TabSketchColumn(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  tabert::TabSketchConfig cfg;
  cfg.k = static_cast<int>(state.range(0));
  tabert::TabSketch ts(*fx.db, *fx.stats, cfg);
  query::FilterPredicate pred;
  pred.rel = 0;
  pred.column = 1;
  pred.op = storage::CompareOp::kLe;
  pred.value = storage::Value::Int(4);
  for (auto _ : state) {
    auto rep = ts.ColumnRepresentation(0, 1, &pred);
    benchmark::DoNotOptimize(rep.data());
  }
}
BENCHMARK(BM_TabSketchColumn)->Arg(1)->Arg(3);

// ---- core ----------------------------------------------------------------

struct ModelFixture {
  std::unique_ptr<core::QpSeeker> model;

  static ModelFixture& Get() {
    static ModelFixture* f = [] {
      auto* fx = new ModelFixture();
      auto& efx = ExecFixture::Get();
      core::QpSeekerConfig cfg = core::QpSeekerConfig::ForScale(Scale::kSmoke);
      fx->model = std::make_unique<core::QpSeeker>(*efx.db, *efx.stats, cfg, 3);
      // Minimal training pass to fit the normalizer.
      sampling::DatasetOptions dopts;
      dopts.source = sampling::PlanSource::kOptimizer;
      Rng rng(8);
      auto ds = sampling::BuildQepDataset(*efx.db, *efx.stats,
                                          {efx.two_join, efx.filter_only}, dopts,
                                          &rng)
                    .value();
      core::TrainOptions topts;
      topts.epochs = 2;
      fx->model->Train(ds, topts);
      return fx;
    }();
    return *f;
  }
};

void BM_QpSeekerPredictPlan(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  auto plan = BuildLeftDeepPlan(
      fx.two_join, {0, 1, 2},
      {query::OpType::kSeqScan, query::OpType::kSeqScan, query::OpType::kSeqScan},
      {query::OpType::kHashJoin, query::OpType::kHashJoin});
  for (auto _ : state) {
    auto pred = mfx.model->PredictPlan(fx.two_join, *plan);
    benchmark::DoNotOptimize(pred.runtime_ms);
  }
}
BENCHMARK(BM_QpSeekerPredictPlan);

// ---- fault injection ----------------------------------------------------
//
// PredictPlan carries the "vae.forward" fault point on its hot path; the
// pair below demonstrates the disarmed registry costs ≤1% (one relaxed
// atomic load per call — compare against BM_QpSeekerPredictPlan).

void BM_FaultPointDisarmed(benchmark::State& state) {
  fault::FaultInjector::Global().DisarmAll();
  for (auto _ : state) {
    Status st = fault::Check("bench.disarmed");
    benchmark::DoNotOptimize(st.ok());
    benchmark::DoNotOptimize(fault::CorruptDouble("bench.disarmed", 1.0));
  }
}
BENCHMARK(BM_FaultPointDisarmed);

void BM_QpSeekerPredictPlanFaultArmed(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  auto plan = BuildLeftDeepPlan(
      fx.two_join, {0, 1, 2},
      {query::OpType::kSeqScan, query::OpType::kSeqScan, query::OpType::kSeqScan},
      {query::OpType::kHashJoin, query::OpType::kHashJoin});
  // An armed-but-never-firing spec on an unrelated point: the worst case for
  // the hot path, which must now take the registry lock on every check.
  fault::FaultSpec spec;
  spec.probability = 0.0;
  fault::FaultInjector::Global().Arm("bench.unrelated", spec);
  for (auto _ : state) {
    auto pred = mfx.model->PredictPlan(fx.two_join, *plan);
    benchmark::DoNotOptimize(pred.runtime_ms);
  }
  fault::FaultInjector::Global().DisarmAll();
}
BENCHMARK(BM_QpSeekerPredictPlanFaultArmed);

void BM_MctsRollouts(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  core::MctsOptions mopts;
  mopts.time_budget_ms = 1e9;
  mopts.max_rollouts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = core::MctsPlan(*mfx.model, fx.two_join, mopts);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MctsRollouts)->Arg(16)->Arg(64);

// MCTS rollouts/sec at threads = 1/2/4. A request plans on one thread, so
// `threads` only sets the automatic eval_batch (8 * threads): this measures
// how larger batched forwards amortize GEMM weight traffic.
void BM_MctsRolloutsParallel(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  core::MctsOptions mopts;
  mopts.time_budget_ms = 1e9;
  mopts.max_rollouts = 256;
  mopts.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = core::MctsPlan(*mfx.model, fx.two_join, mopts);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * mopts.max_rollouts);
}
BENCHMARK(BM_MctsRolloutsParallel)->Arg(1)->Arg(2)->Arg(4);

// ---- plan-prediction cache ----------------------------------------------

void BM_PlanCacheHit(benchmark::State& state) {
  core::PlanPredictionCache cache(1 << 20);
  query::NodeStats s;
  s.runtime_ms = 1.0;
  cache.Insert(42, 7, s);
  query::NodeStats out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(42, 7, &out));
  }
}
BENCHMARK(BM_PlanCacheHit);

void BM_PlanCacheMiss(benchmark::State& state) {
  core::PlanPredictionCache cache(1 << 20);
  query::NodeStats out;
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(42, ++key, &out));
  }
}
BENCHMARK(BM_PlanCacheMiss);

// End-to-end cached prediction: the full PredictPlan path when every call
// hits the cache (fingerprint + shape hash + LRU refresh, no forward).
void BM_QpSeekerPredictPlanCached(benchmark::State& state) {
  auto& fx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  auto plan = BuildLeftDeepPlan(
      fx.two_join, {0, 1, 2},
      {query::OpType::kSeqScan, query::OpType::kSeqScan, query::OpType::kSeqScan},
      {query::OpType::kHashJoin, query::OpType::kHashJoin});
  mfx.model->EnableCache(1 << 20);
  mfx.model->PredictPlan(fx.two_join, *plan);  // warm the entry
  for (auto _ : state) {
    auto pred = mfx.model->PredictPlan(fx.two_join, *plan);
    benchmark::DoNotOptimize(pred.runtime_ms);
  }
  mfx.model->EnableCache(0);
}
BENCHMARK(BM_QpSeekerPredictPlanCached);

// ---------------------------------------------------------------------------
// Checkpoint save/load throughput (DESIGN.md §11). The v2 format CRCs every
// tensor and the whole file, serializes in memory, and lands via
// write-temp + fsync + rename; these measure that durability tax in
// bytes/sec over the full smoke-scale model bundle.

void BM_CheckpointSave(benchmark::State& state) {
  auto& mfx = ModelFixture::Get();
  const std::string path = "/tmp/qps_bench_ckpt.bin";
  std::remove(path.c_str());
  int64_t bytes = 0;
  for (auto _ : state) {
    Status st = mfx.model->Save(path);
    benchmark::DoNotOptimize(st.ok());
  }
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    bytes = static_cast<int64_t>(in.tellg());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointSave);

void BM_CheckpointLoad(benchmark::State& state) {
  auto& efx = ExecFixture::Get();
  auto& mfx = ModelFixture::Get();
  const std::string path = "/tmp/qps_bench_ckpt.bin";
  std::remove(path.c_str());
  Status saved = mfx.model->Save(path);
  if (!saved.ok()) state.SkipWithError(saved.message().c_str());
  core::QpSeeker target(*efx.db, *efx.stats,
                        core::QpSeekerConfig::ForScale(Scale::kSmoke), 3);
  int64_t bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    bytes = static_cast<int64_t>(in.tellg());
  }
  for (auto _ : state) {
    Status st = target.Load(path);
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove(path.c_str());
}
BENCHMARK(BM_CheckpointLoad);

// ---------------------------------------------------------------------------
// Observability overhead (DESIGN.md §8). Spans and counters sit on the
// per-rollout and per-operator hot paths, so the disarmed/hot costs must be
// negligible: BM_TraceSpanDisabled is one relaxed atomic load, and
// BM_CounterIncrement one relaxed fetch_add — both ≤10 ns (EXPERIMENTS.md).

void BM_TraceSpanDisabled(benchmark::State& state) {
  trace::Stop();
  trace::Clear();
  for (auto _ : state) {
    QPS_TRACE_SPAN("bench.disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  trace::Start();
  for (auto _ : state) {
    QPS_TRACE_SPAN("bench.enabled");
    benchmark::ClobberMemory();
  }
  trace::Stop();
  trace::Clear();
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_CounterIncrement(benchmark::State& state) {
  metrics::Counter* counter =
      metrics::Registry::Global().GetCounter("qps.bench.counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::Histogram* hist =
      metrics::Registry::Global().GetHistogram("qps.bench.histogram");
  double v = 0.001;
  for (auto _ : state) {
    hist->Record(v);
    v = v < 100.0 ? v * 1.7 : 0.001;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramRecord);

// Windowed metrics (obs/window.h): the enabled path adds a clock read and
// the slot CAS check on top of the cumulative counter; the disabled path
// must be one relaxed load + branch — strictly cheaper than a cumulative
// Counter::Increment, enforced by the assertion in main() below.

void BM_WindowedCounterIncrement(benchmark::State& state) {
  obs::SetWindowedEnabled(true);
  obs::WindowedCounter* counter =
      obs::WindowRegistry::Global().GetCounter("qps.bench.window_counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WindowedCounterIncrement);

void BM_WindowedCounterDisabled(benchmark::State& state) {
  obs::SetWindowedEnabled(false);
  obs::WindowedCounter* counter =
      obs::WindowRegistry::Global().GetCounter("qps.bench.window_counter");
  for (auto _ : state) {
    counter->Increment();
    benchmark::ClobberMemory();
  }
  obs::SetWindowedEnabled(true);
}
BENCHMARK(BM_WindowedCounterDisabled);

void BM_WindowedHistogramRecord(benchmark::State& state) {
  obs::SetWindowedEnabled(true);
  obs::WindowedHistogram* hist =
      obs::WindowRegistry::Global().GetHistogram("qps.bench.window_hist");
  double v = 0.001;
  for (auto _ : state) {
    hist->Record(v);
    v = v < 100.0 ? v * 1.7 : 0.001;
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WindowedHistogramRecord);

/// Best-of-trials ns/op for a timing loop, outside google-benchmark so the
/// overhead bound below is a hard pass/fail rather than a report line.
template <typename Fn>
double BestNsPerOp(Fn&& op) {
  constexpr int kTrials = 5;
  constexpr int64_t kIters = 2'000'000;
  double best_ns = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < kIters; ++i) {
      op();
      benchmark::ClobberMemory();
    }
    const auto end = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
    best_ns = std::min(best_ns, ns / static_cast<double>(kIters));
  }
  return best_ns;
}

/// Acceptance bound (ISSUE: observability): the *disabled* windowed
/// increment must cost <= 2x a cumulative Counter::Increment, so windowed
/// instrumentation can stay compiled into hot paths. Returns 0 on pass.
int CheckWindowedOverheadBound() {
  metrics::Counter* counter =
      metrics::Registry::Global().GetCounter("qps.bench.overhead_counter");
  obs::WindowedCounter* windowed =
      obs::WindowRegistry::Global().GetCounter("qps.bench.overhead_window");

  const double counter_ns = BestNsPerOp([&] { counter->Increment(); });
  obs::SetWindowedEnabled(false);
  const double disabled_ns = BestNsPerOp([&] { windowed->Increment(); });
  obs::SetWindowedEnabled(true);

  // Half a nanosecond of absolute slack absorbs timer granularity when
  // both loops are ~1 ns/op.
  const double bound_ns = 2.0 * counter_ns + 0.5;
  // stderr, so that --benchmark_format=json output on stdout still parses.
  std::fprintf(
      stderr,
      "windowed-overhead check: counter %.3f ns/op, windowed(disabled) "
      "%.3f ns/op, bound %.3f ns/op -> %s\n",
      counter_ns, disabled_ns, bound_ns,
      disabled_ns <= bound_ns ? "OK" : "FAIL");
  if (disabled_ns <= bound_ns) return 0;
  std::fprintf(stderr,
               "FAIL: disabled windowed Increment (%.3f ns) exceeds 2x "
               "Counter::Increment (%.3f ns)\n",
               disabled_ns, counter_ns);
  return 1;
}

/// Acceptance bound (ISSUE: robustness): the two operations the self-healing
/// layer adds to every request's hot path — polling a live CancelToken at
/// rollout boundaries and classifying a Status as retryable — must each cost
/// <= 2x a disarmed fault-point check, the price the serving path already
/// pays per request. Returns 0 on pass.
int CheckResilienceOverheadBound() {
  fault::FaultInjector::Global().DisarmAll();
  const double disarmed_ns =
      BestNsPerOp([] { benchmark::DoNotOptimize(fault::Check("bench.disarmed")); });

  util::CancelToken token;
  const double cancel_ns =
      BestNsPerOp([&] { benchmark::DoNotOptimize(token.Cancelled()); });

  serve::RetryPolicy policy;
  policy.max_retries = 2;
  const Status failure = Status::Unavailable("transient");
  const double classify_ns = BestNsPerOp(
      [&] { benchmark::DoNotOptimize(policy.ShouldRetry(failure, 1)); });

  const double bound_ns = 2.0 * disarmed_ns + 0.5;
  const bool ok = cancel_ns <= bound_ns && classify_ns <= bound_ns;
  std::fprintf(
      stderr,
      "resilience-overhead check: disarmed fault %.3f ns/op, cancel poll "
      "%.3f ns/op, retry classify %.3f ns/op, bound %.3f ns/op -> %s\n",
      disarmed_ns, cancel_ns, classify_ns, bound_ns, ok ? "OK" : "FAIL");
  if (ok) return 0;
  std::fprintf(stderr,
               "FAIL: resilience hot-path ops (cancel %.3f ns, classify "
               "%.3f ns) exceed 2x disarmed fault check (%.3f ns)\n",
               cancel_ns, classify_ns, disarmed_ns);
  return 1;
}

}  // namespace
}  // namespace qps

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int rc = qps::CheckWindowedOverheadBound();
  rc |= qps::CheckResilienceOverheadBound();
  return rc;
}
