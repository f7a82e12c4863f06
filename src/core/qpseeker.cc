// Copyright 2026 The QPSeeker Authors

#include "core/qpseeker.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "nn/optim.h"
#include "nn/serialize.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace core {

using nn::Var;
using query::PlanNode;
using query::Query;

namespace {

constexpr const char* kNormalizerKeys[3] = {
    "normalizer.log_max.0", "normalizer.log_max.1", "normalizer.log_max.2"};

nn::ScalarEntries NormalizerEntries(const encoder::LabelNormalizer& norm) {
  return {{kNormalizerKeys[0], norm.log_max(0)},
          {kNormalizerKeys[1], norm.log_max(1)},
          {kNormalizerKeys[2], norm.log_max(2)}};
}

/// Rebuilds a finalized normalizer whose log-ranges equal (c, k, r).
void NormalizerFromLogMax(double c, double k, double r,
                          encoder::LabelNormalizer* out) {
  *out = encoder::LabelNormalizer();
  query::PlanNode fake;
  fake.actual.cardinality = std::expm1(c);
  fake.actual.cost = std::expm1(k);
  fake.actual.runtime_ms = std::expm1(r);
  out->Observe(fake);
  out->Finalize();
}

/// Extracts the three normalizer.log_max.* scalars; false when absent.
bool FindNormalizerEntries(const nn::ScalarEntries& entries, double out[3]) {
  bool have[3] = {false, false, false};
  for (const auto& [name, value] : entries) {
    for (int i = 0; i < 3; ++i) {
      if (name == kNormalizerKeys[i]) {
        out[i] = value;
        have[i] = true;
      }
    }
  }
  return have[0] && have[1] && have[2];
}

}  // namespace

QpSeekerConfig QpSeekerConfig::ForScale(Scale scale) {
  QpSeekerConfig cfg;
  switch (scale) {
    case Scale::kSmoke:
      cfg.encoder = encoder::EncoderConfig::Smoke();
      cfg.latent_dim = 8;
      cfg.vae_hidden_layers = 2;
      break;
    case Scale::kCi:
      cfg.encoder = encoder::EncoderConfig::Ci();
      cfg.latent_dim = 16;
      cfg.vae_hidden_layers = 3;
      break;
    case Scale::kPaper:
      cfg.encoder = encoder::EncoderConfig::Paper();
      cfg.latent_dim = 32;  // paper: 32 latent features
      cfg.vae_hidden_layers = 5;
      break;
  }
  return cfg;
}

/// Exposes every trainable submodule as one Module (for Adam / serialize).
class QpSeeker::Bundle : public nn::Module {
 public:
  Bundle(encoder::QueryEncoder* qe, encoder::PlanEncoder* pe,
         encoder::QpAttention* at, nn::Vae* vae, nn::Linear* head) {
    RegisterChild("query_encoder", qe);
    RegisterChild("plan_encoder", pe);
    RegisterChild("qp_attention", at);
    RegisterChild("vae", vae);
    RegisterChild("head", head);
  }
};

QpSeeker::QpSeeker(const storage::Database& db, const stats::DatabaseStats& stats,
                   QpSeekerConfig config, uint64_t seed)
    : db_(db), stats_(stats), config_(config) {
  cards_ = std::make_unique<optimizer::CardinalityEstimator>(db, stats);
  cost_model_ = std::make_unique<optimizer::CostModel>(*cards_);
  Rng rng(seed);
  // TabSketch plays the role of *pretrained* TaBERT weights: fixed seed,
  // identical across model instances (and thus across Save/Load).
  tabert_ = std::make_unique<tabert::TabSketch>(db, stats, config_.tabert,
                                                /*seed=*/0x7ab5);
  query_encoder_ = std::make_unique<encoder::QueryEncoder>(db, config_.encoder, &rng);
  plan_encoder_ =
      std::make_unique<encoder::PlanEncoder>(db, *tabert_, config_.encoder, &rng);
  attention_ = std::make_unique<encoder::QpAttention>(
      query_encoder_->out_dim(), plan_encoder_->node_out_dim(), config_.encoder, &rng);
  const int qep_dim = attention_->out_dim();
  vae_ = std::make_unique<nn::Vae>(qep_dim, config_.latent_dim,
                                   config_.vae_hidden_layers, &rng);
  head_ = std::make_unique<nn::Linear>(qep_dim, 3, &rng, "head");
  bundle_ = std::make_unique<Bundle>(query_encoder_.get(), plan_encoder_.get(),
                                     attention_.get(), vae_.get(), head_.get());
}

QpSeeker::QpSeeker(QpSeeker&&) noexcept = default;
QpSeeker::~QpSeeker() = default;

int64_t QpSeeker::NumParameters() const { return bundle_->NumParameters(); }

std::vector<nn::NamedParam> QpSeeker::AllParameters() const {
  return bundle_->Parameters();
}

void QpSeeker::AnnotateEstimates(const Query& q, PlanNode* plan) const {
  // EXPLAIN-style annotations from the statistics-based cost model — the
  // paper feeds "estimations ... from the DB optimizer" (§4.2) into each
  // node, and the model learns the mapping from these to true values.
  cost_model_->EstimatePlan(q, plan);
}

QpSeeker::ForwardOut QpSeeker::Forward(const Query& q, const PlanNode& plan,
                                       Rng* sample_rng) const {
  static metrics::Counter* const forwards_counter =
      metrics::Registry::Global().GetCounter("qps.model.forwards");
  QPS_TRACE_SPAN("model.forward");
  forwards_counter->Increment();
  ForwardOut out;
  Var query_emb = query_encoder_->Encode(q);
  out.plan_out = plan_encoder_->Encode(q, plan, normalizer_);
  if (config_.use_attention) {
    out.qep_embedding = attention_->Combine(query_emb, out.plan_out);
  } else {
    // Ablation: plain concatenation of query and plan embeddings (§4.3
    // argues attention beats this).
    out.qep_embedding = nn::ConcatCols({query_emb, out.plan_out.root});
  }
  // Linear (unbounded) output head: normalized targets live in [0, 1], but
  // an unseen workload's plans can be costlier than anything in training
  // and the planner must still *rank* them (the Figure 9 transfer setting).
  if (config_.use_vae) {
    QPS_TRACE_SPAN("vae.forward");
    out.vae = vae_->Forward(out.qep_embedding, sample_rng);
    out.preds = head_->Forward(out.vae.recon);
  } else {
    // Ablation: deterministic regressor, no variational bottleneck.
    out.vae.recon = out.qep_embedding;
    out.vae.mu = out.qep_embedding;
    out.vae.logvar = out.qep_embedding;
    out.preds = head_->Forward(out.qep_embedding);
  }
  return out;
}

TrainReport QpSeeker::Train(const sampling::QepDataset& dataset,
                            const TrainOptions& opts) {
  TrainReport report;
  report.num_parameters = NumParameters();
  QPS_CHECK(!dataset.qeps.empty()) << "empty training set";

  // Training updates the f32 weights, so any attached int8 slots would go
  // stale after the first step; drop them up front.
  nn::ClearModuleQuantization(bundle_.get());

  normalizer_ = encoder::LabelNormalizer();
  for (const auto& qep : dataset.qeps) normalizer_.Observe(*qep.plan);
  normalizer_.Finalize();

  // Annotate input estimates once (leaf EXPLAIN stats the encoder consumes).
  std::vector<const sampling::Qep*> items;
  for (const auto& qep : dataset.qeps) {
    AnnotateEstimates(dataset.queries[static_cast<size_t>(qep.query_id)],
                      qep.plan.get());
    items.push_back(&qep);
  }

  nn::Adam adam(AllParameters(), opts.learning_rate);
  Rng rng(opts.seed);
  Timer timer;
  const float beta_eff = static_cast<float>(config_.beta * config_.beta_scale);

  // Resume from an existing training checkpoint: weights, Adam slots, RNG
  // stream, and epoch counter all restored, so the loss curve continues as
  // if the run had never been interrupted.
  int start_epoch = 0;
  if (!opts.checkpoint_path.empty() &&
      nn::LooksLikeCheckpoint(opts.checkpoint_path)) {
    nn::TrainingState st;
    Status resumed = nn::LoadTrainingCheckpoint(bundle_.get(), &adam, &st,
                                                opts.checkpoint_path);
    if (resumed.ok()) {
      start_epoch = static_cast<int>(st.epoch);
      rng.LoadState(st.rng);
      double lm[3] = {0, 0, 0};
      if (FindNormalizerEntries(st.extra, lm)) {
        NormalizerFromLogMax(lm[0], lm[1], lm[2], &normalizer_);
      }
      report.resumed_epochs = start_epoch;
      QPS_LOG(Info) << "train: resumed from " << opts.checkpoint_path
                    << " at epoch " << start_epoch;
    } else {
      QPS_LOG(Warning) << "train: cannot resume from " << opts.checkpoint_path
                       << " (" << resumed.message() << "); starting fresh";
    }
  }

  auto& reg = metrics::Registry::Global();
  metrics::Counter* const epochs_counter = reg.GetCounter("qps.train.epochs");
  metrics::Gauge* const loss_gauge = reg.GetGauge("qps.train.epoch_loss");
  metrics::Gauge* const grad_gauge = reg.GetGauge("qps.train.grad_norm");
  metrics::Gauge* const lr_gauge = reg.GetGauge("qps.train.lr");
  lr_gauge->Set(opts.learning_rate);

  for (int epoch = start_epoch; epoch < opts.epochs; ++epoch) {
    QPS_TRACE_SPAN_VAR(epoch_span, "train.epoch");
    epoch_span.AddAttr("epoch", epoch);
    // Shuffle a fresh canonical copy: the permutation is then a function of
    // the RNG state alone, not of prior epochs' orderings, so a resumed run
    // (restored RNG, canonical items) replays the uninterrupted schedule.
    std::vector<const sampling::Qep*> order = items;
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t index = 0;
    while (index < order.size()) {
      bundle_->ZeroGrad();
      const size_t batch_end =
          std::min(order.size(), index + static_cast<size_t>(opts.batch_size));
      double batch_loss = 0.0;
      for (; index < batch_end; ++index) {
        const sampling::Qep& qep = *order[index];
        const Query& q = dataset.queries[static_cast<size_t>(qep.query_id)];
        ForwardOut fwd = Forward(q, *qep.plan, &rng);

        // (1) Plan-level target MSE.
        const auto target3 = normalizer_.Normalize(qep.plan->actual);
        Var loss = nn::Scale(
            nn::MseLoss(fwd.preds,
                        nn::Tensor::Row({target3[0], target3[1], target3[2]})),
            static_cast<float>(config_.pred_weight));
        // (2) VAE reconstruction + KL (the variational objective).
        if (config_.use_vae) {
          Var recon_loss = nn::MeanAll(
              nn::Square(nn::Sub(fwd.vae.recon, fwd.qep_embedding)));
          loss = nn::Add(loss, nn::Scale(recon_loss,
                                         static_cast<float>(config_.recon_weight)));
          loss = nn::Add(loss, nn::Scale(nn::GaussianKl(fwd.vae.mu, fwd.vae.logvar),
                                         beta_eff));
        }
        // (3) Per-node supervision of the plan encoder's stat dims.
        if (config_.node_loss_weight > 0.0) {
          const int dvec = plan_encoder_->data_vec_dim();
          std::vector<Var> node_preds;
          std::vector<float> node_targets;
          for (size_t ni = 0; ni < fwd.plan_out.nodes.size(); ++ni) {
            node_preds.push_back(nn::SliceCols(fwd.plan_out.node_outputs[ni], dvec,
                                               dvec + 3));
            const auto n3 = normalizer_.Normalize(fwd.plan_out.nodes[ni]->actual);
            node_targets.insert(node_targets.end(), {n3[0], n3[1], n3[2]});
          }
          Var stacked = nn::ConcatCols(node_preds);
          Var node_loss = nn::MseLoss(stacked, nn::Tensor::Row(node_targets));
          loss = nn::Add(loss, nn::Scale(node_loss,
                                         static_cast<float>(config_.node_loss_weight)));
        }
        batch_loss += loss->value(0, 0);
        nn::Backward(loss);
      }
      grad_gauge->Set(adam.ClipGradNorm(opts.grad_clip));
      adam.Step();
      epoch_loss += batch_loss;
    }
    epoch_loss /= static_cast<double>(items.size());
    report.epoch_losses.push_back(epoch_loss);
    epochs_counter->Increment();
    loss_gauge->Set(epoch_loss);
    if (opts.verbose) {
      QPS_LOG(Info) << "epoch " << epoch << " loss " << epoch_loss;
    }
    QPS_VLOG(2) << "train: epoch " << epoch << " loss " << epoch_loss
                << " grad_norm " << grad_gauge->value();

    // Snapshot after the completed epoch. The RNG is saved *post-shuffle*,
    // so a resumed run replays the exact remaining stream. A failed save is
    // a warning, not a training abort: the previous checkpoint (if any)
    // stays intact thanks to the atomic write.
    if (!opts.checkpoint_path.empty() &&
        (opts.checkpoint_every <= 1 ||
         (epoch + 1) % opts.checkpoint_every == 0 || epoch + 1 == opts.epochs)) {
      nn::TrainingState st;
      st.epoch = epoch + 1;
      st.rng = rng.SaveState();
      st.extra = NormalizerEntries(normalizer_);
      Status saved = nn::SaveTrainingCheckpoint(*bundle_, adam, st,
                                                opts.checkpoint_path);
      if (!saved.ok()) {
        QPS_LOG(Warning) << "train: checkpoint save failed: " << saved.message();
      }
    }
  }
  report.final_loss = report.epoch_losses.empty() ? 0.0 : report.epoch_losses.back();
  report.train_seconds = timer.ElapsedSeconds();
  // Cached predictions are functions of the weights just updated.
  if (cache_ != nullptr) cache_->Clear();
  return report;
}

void QpSeeker::EncodeQepRows(const Query& q,
                             const std::vector<const PlanNode*>& annotated,
                             EvalMemo* memo, int64_t first_row, nn::Tensor* qep) const {
  if (memo->model_ == nullptr) {
    memo->model_ = this;
    memo->query_ = &q;
    query_encoder_->EncodeTensor(q, &memo->query_emb_);
    if (config_.use_attention) {
      attention_->ProjectQuery(memo->query_emb_, &memo->query_heads_);
    }
  }
  QPS_CHECK(memo->model_ == this) << "EvalMemo reused for a different model";
  QPS_CHECK(memo->query_ == &q) << "EvalMemo reused for a different query";
  if (memo->bytes() > memo->max_bytes_) {
    memo->plan_.ClearRows();
    memo->keys_.clear();
    memo->values_.clear();
  }
  const int64_t before = memo->plan_.rows();
  std::vector<std::vector<int>> plan_rows;
  plan_encoder_->EncodeBatch(q, annotated, normalizer_, &memo->plan_, &plan_rows);

  const nn::Tensor& query_emb = memo->query_emb_;
  const int64_t qep_dim = attention_->out_dim();
  const int64_t node_dim = plan_encoder_->node_out_dim();
  const size_t node_bytes = sizeof(float) * static_cast<size_t>(node_dim);
  QPS_TRACE_SPAN("encode.attention");
  // Keys and values of the subtrees this call added, one GEMM per head
  // over all of them; then every attended plan of the call in one pass,
  // reading its rows' keys and values from the memo in place.
  if (config_.use_attention && memo->plan_.rows() > before) {
    nn::Tensor added(memo->plan_.rows() - before, node_dim), keys, values;
    for (int64_t r = 0; r < added.rows(); ++r) {
      std::memcpy(added.data() + r * node_dim, memo->plan_.output(before + r), node_bytes);
    }
    attention_->ProjectNodes(added, &keys, &values);
    memo->keys_.insert(memo->keys_.end(), keys.data(), keys.data() + keys.size());
    memo->values_.insert(memo->values_.end(), values.data(),
                         values.data() + values.size());
  }
  std::vector<std::vector<int>> attended_rows;
  std::vector<int64_t> attended_at;  // qep row of each attended plan
  for (size_t p = 0; p < plan_rows.size(); ++p) {
    const int64_t at = first_row + static_cast<int64_t>(p);
    std::vector<int>& rows = plan_rows[p];
    if (config_.use_attention && encoder::QpAttention::Attends(rows.size())) {
      attended_rows.push_back(std::move(rows));
      attended_at.push_back(at);
      continue;
    }
    // Concatenation of the query and plan-root embeddings: the
    // no-attention ablation, and every plan QPAttention does not attend.
    float* row = qep->data() + at * qep_dim;
    std::memcpy(row, query_emb.data(), sizeof(float) * static_cast<size_t>(query_emb.cols()));
    std::memcpy(row + query_emb.cols(), memo->plan_.output(rows.back()), node_bytes);
  }
  if (attended_rows.empty()) return;
  nn::Tensor attended;
  attention_->AttendRows(memo->query_heads_, memo->keys_.data(), memo->values_.data(),
                         attended_rows, &attended);
  for (size_t i = 0; i < attended_at.size(); ++i) {
    std::memcpy(qep->data() + attended_at[i] * qep_dim,
                attended.data() + static_cast<int64_t>(i) * qep_dim,
                sizeof(float) * static_cast<size_t>(qep_dim));
  }
}

nn::Tensor QpSeeker::HeadTensor(const nn::Tensor& qep) const {
  nn::Tensor preds;
  if (config_.use_vae) {
    QPS_TRACE_SPAN("vae.forward");
    nn::Tensor mu, recon;
    vae_->ForwardTensor(qep, &mu, &recon);
    head_->ForwardTensor(recon, &preds);
  } else {
    head_->ForwardTensor(qep, &preds);
  }
  return preds;
}

std::vector<query::NodeStats> QpSeeker::PredictPlansBatch(
    const Query& q, const std::vector<const PlanNode*>& plans, EvalMemo* memo) const {
  return std::move(PredictPlansMulti({PlanEvalRequest{&q, plans, memo}})[0]);
}

std::vector<std::vector<query::NodeStats>> QpSeeker::PredictPlansMulti(
    const std::vector<PlanEvalRequest>& requests) const {
  std::vector<std::vector<query::NodeStats>> results(requests.size());

  // Cache consultation plus dedup, both keyed on the plan shape hash: MCTS
  // random completions collide regularly, and a repeated shape within one
  // request is the same prediction, so only its first occurrence is
  // evaluated and the rest copy its result. Dedup stays *within* each
  // request on purpose: then a request's rows, and so its predictions, do
  // not depend on what else shares the forward.
  struct Miss {
    size_t req;
    size_t plan;
    uint64_t shape;
  };
  struct Dup {
    size_t req;
    size_t plan;
    size_t first;  ///< the evaluated occurrence of the same shape
  };
  std::vector<Miss> misses;  ///< by request, then plan: row f is misses[f]
  std::vector<Dup> dups;
  std::vector<uint64_t> query_fp(requests.size(), 0);
  for (size_t r = 0; r < requests.size(); ++r) {
    const auto& plans = requests[r].plans;
    results[r].resize(plans.size());
    if (cache_ != nullptr) query_fp[r] = QueryFingerprint(*requests[r].query);
    std::unordered_map<uint64_t, size_t> first;  ///< shape -> first miss
    for (size_t i = 0; i < plans.size(); ++i) {
      const uint64_t shape = PlanShapeHash(*plans[i]);
      if (cache_ != nullptr && cache_->Lookup(query_fp[r], shape, &results[r][i])) {
        continue;
      }
      const auto [it, inserted] = first.try_emplace(shape, i);
      if (inserted) {
        misses.push_back(Miss{r, i, shape});
      } else {
        dups.push_back(Dup{r, i, it->second});
      }
    }
  }

  if (!misses.empty()) {
    // Clone + annotate each miss.
    std::vector<query::PlanPtr> annotated;
    annotated.reserve(misses.size());
    {
      QPS_TRACE_SPAN("plan.annotate");
      for (const Miss& miss : misses) {
        annotated.push_back(requests[miss.req].plans[miss.plan]->Clone());
        AnnotateEstimates(*requests[miss.req].query, annotated.back().get());
      }
    }

    // Encode per request (encoders are query-specific) into one stacked
    // matrix, so the dense VAE/head pass is shared across requests — the
    // cross-query fusion the serving layer batches for.
    static metrics::Counter* const forwards_counter =
        metrics::Registry::Global().GetCounter("qps.model.forwards");
    QPS_TRACE_SPAN("model.forward");
    forwards_counter->Increment(static_cast<int64_t>(misses.size()));
    nn::Tensor qep(static_cast<int64_t>(misses.size()), attention_->out_dim());
    for (size_t begin = 0, end = 0; begin < misses.size(); begin = end) {
      std::vector<const PlanNode*> ptrs;
      for (end = begin; end < misses.size() && misses[end].req == misses[begin].req;
           ++end) {
        ptrs.push_back(annotated[end].get());
      }
      const PlanEvalRequest& request = requests[misses[begin].req];
      EvalMemo local;
      EncodeQepRows(*request.query, ptrs, request.memo != nullptr ? request.memo : &local,
                    static_cast<int64_t>(begin), &qep);
    }
    const nn::Tensor preds = HeadTensor(qep);

    for (size_t f = 0; f < misses.size(); ++f) {
      const Miss& miss = misses[f];
      const int64_t row = static_cast<int64_t>(f);
      const float a = preds(row, 0);
      const float b = preds(row, 1);
      const float c = preds(row, 2);
      query::NodeStats& out = results[miss.req][miss.plan];
      if (!(std::isfinite(a) && std::isfinite(b) && std::isfinite(c))) {
        // Sentinel: a diverged VAE head poisons the whole triple, so callers
        // see one consistent "garbage" signal rather than a partially valid
        // one. Never cached.
        const double bad = std::nan("");
        out = query::NodeStats{bad, bad, bad};
        continue;
      }
      out = normalizer_.Denormalize(a, b, c);
      if (cache_ != nullptr) cache_->Insert(query_fp[miss.req], miss.shape, out);
    }
  }

  for (const Dup& dup : dups) results[dup.req][dup.plan] = results[dup.req][dup.first];

  // Fault injection happens after cache insert, so a corrupted value is
  // returned to the caller but never stored — hit and miss paths stay
  // behaviorally identical under fault tests.
  for (auto& request_results : results) {
    for (auto& stats : request_results) {
      stats.runtime_ms = fault::CorruptDouble("vae.forward", stats.runtime_ms);
    }
  }
  return results;
}

query::NodeStats QpSeeker::PredictPlan(const Query& q, const PlanNode& plan) const {
  return PredictPlansBatch(q, {&plan})[0];
}

query::NodeStats QpSeeker::PredictPlanReference(const Query& q,
                                                const PlanNode& plan) const {
  auto annotated = plan.Clone();
  AnnotateEstimates(q, annotated.get());
  ForwardOut fwd = Forward(q, *annotated, /*sample_rng=*/nullptr);
  // Sentinel: a diverged VAE head poisons the whole triple, so callers see
  // one consistent "garbage" signal rather than a partially valid one.
  if (!fwd.preds->value.AllFinite()) {
    const double bad = std::nan("");
    return query::NodeStats{bad, bad, bad};
  }
  query::NodeStats out =
      normalizer_.Denormalize(fwd.preds->value(0, 0), fwd.preds->value(0, 1),
                              fwd.preds->value(0, 2));
  // Fault point: emulate that divergence on demand for pipeline tests.
  out.runtime_ms = fault::CorruptDouble("vae.forward", out.runtime_ms);
  return out;
}

void QpSeeker::EnableCache(int64_t capacity_bytes) {
  if (capacity_bytes <= 0) {
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<PlanPredictionCache>(capacity_bytes);
}

nn::Tensor QpSeeker::NodeMatrix(const Query& q, const PlanNode& plan) const {
  auto annotated = plan.Clone();
  AnnotateEstimates(q, annotated.get());
  encoder::PlanEncoder::Memo memo;
  std::vector<std::vector<int>> rows;
  plan_encoder_->EncodeBatch(q, {annotated.get()}, normalizer_, &memo, &rows);
  const int64_t width = plan_encoder_->node_out_dim();
  nn::Tensor nodes(static_cast<int64_t>(rows[0].size()), width);
  for (int64_t i = 0; i < nodes.rows(); ++i) {
    std::memcpy(nodes.data() + i * width, memo.output(rows[0][static_cast<size_t>(i)]),
                sizeof(float) * static_cast<size_t>(width));
  }
  return nodes;
}

std::vector<query::NodeStats> QpSeeker::PredictNodes(const Query& q,
                                                     const PlanNode& plan) const {
  const nn::Tensor nm = NodeMatrix(q, plan);
  const int dvec = plan_encoder_->data_vec_dim();
  std::vector<query::NodeStats> out;
  out.reserve(static_cast<size_t>(nm.rows()));
  for (int64_t i = 0; i < nm.rows(); ++i) {
    out.push_back(
        normalizer_.Denormalize(nm(i, dvec), nm(i, dvec + 1), nm(i, dvec + 2)));
  }
  return out;
}

nn::Tensor QpSeeker::AttentionScores(const Query& q, const PlanNode& plan) const {
  nn::Tensor scores;
  if (!config_.use_attention) return scores;
  const nn::Tensor nodes = NodeMatrix(q, plan);
  if (!encoder::QpAttention::Attends(static_cast<size_t>(nodes.rows()))) return scores;
  nn::Tensor query_emb, q_heads, keys, values, qep;
  query_encoder_->EncodeTensor(q, &query_emb);
  attention_->ProjectQuery(query_emb, &q_heads);
  attention_->ProjectNodes(nodes, &keys, &values);
  std::vector<int> rows(static_cast<size_t>(nodes.rows()));
  std::iota(rows.begin(), rows.end(), 0);
  attention_->AttendRows(q_heads, keys.data(), values.data(), {std::move(rows)}, &qep,
                         &scores);
  return scores;
}

std::vector<float> QpSeeker::LatentVector(const Query& q, const PlanNode& plan) const {
  auto annotated = plan.Clone();
  AnnotateEstimates(q, annotated.get());
  ForwardOut fwd = Forward(q, *annotated, nullptr);
  return fwd.vae.mu->value.ToVector();
}

Status QpSeeker::Save(const std::string& path) const {
  // One atomic file: weights plus the fitted normalizer as scalar entries.
  return nn::SaveModule(*bundle_, path, NormalizerEntries(normalizer_));
}

Status QpSeeker::SaveQuantized(const std::string& path) const {
  return nn::SaveModuleQuantized(*bundle_, path, NormalizerEntries(normalizer_));
}

int64_t QpSeeker::QuantizeForInference() {
  const int64_t count = nn::QuantizeModule(bundle_.get());
  // f32 and int8 forwards differ in the low bits; cached predictions made
  // under the other kernel must not leak through.
  if (cache_ != nullptr) cache_->Clear();
  return count;
}

bool QpSeeker::quantized() const {
  return nn::ModuleHasQuantizedWeights(*bundle_);
}

Status QpSeeker::Load(const std::string& path) {
  nn::ScalarEntries extra;
  QPS_RETURN_IF_ERROR(nn::LoadModule(bundle_.get(), path, &extra));
  // Loaded weights invalidate any predictions cached under the old ones.
  if (cache_ != nullptr) cache_->Clear();
  double lm[3] = {0, 0, 0};
  if (!FindNormalizerEntries(extra, lm)) {
    return Status::InvalidArgument("checkpoint " + path +
                                   ": no normalizer entries");
  }
  NormalizerFromLogMax(lm[0], lm[1], lm[2], &normalizer_);
  return Status::OK();
}

}  // namespace core
}  // namespace qps
