// Copyright 2026 The QPSeeker Authors
//
// QPSeeker: the end-to-end neural planner (paper §3-§5). Composition:
//
//   QueryEncoder(T_q, J_q) ------------------+
//                                            v
//   PlanEncoder(plan, TabSketch reps) -> QPAttention -> VAE (Cost Modeler)
//                                                        |-> reconstruction
//                                                        '-> dense head ->
//                                                  (cardinality, cost, runtime)
//
// Training minimizes  ||x - x_hat||^2 + beta_eff * KL(N(mu,sigma) || N(0,1))
// + MSE(preds, labels) (+ per-node supervision of the plan encoder's stat
// dims). Inference pairs the learned cost model with MCTS (mcts.h).

#ifndef QPS_CORE_QPSEEKER_H_
#define QPS_CORE_QPSEEKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/plan_cache.h"
#include "encoder/plan_encoder.h"
#include "encoder/qp_attention.h"
#include "encoder/query_encoder.h"
#include "optimizer/cost_model.h"
#include "sampling/plan_sampler.h"
#include "util/scale.h"

namespace qps {
namespace core {

struct QpSeekerConfig {
  encoder::EncoderConfig encoder;
  tabert::TabSketchConfig tabert;
  int latent_dim = 16;        ///< paper: 32
  int vae_hidden_layers = 3;  ///< paper: 5
  double beta = 100.0;        ///< KL weight knob from the paper (100/200/300)
  /// beta is multiplied by this to land on our loss scale; the paper's
  /// ratios (1x/2x/3x) are preserved.
  double beta_scale = 1e-5;
  double node_loss_weight = 0.5;
  double recon_weight = 1.0;
  double pred_weight = 3.0;  ///< weight on the target-triple MSE
  /// Ablations (bench_ablation_*): plain concatenation instead of
  /// QPAttention; deterministic MLP head instead of the VAE cost modeler.
  bool use_attention = true;
  bool use_vae = true;

  static QpSeekerConfig ForScale(Scale scale);
};

struct TrainOptions {
  int epochs = 25;
  int batch_size = 16;     ///< paper §6.2
  float learning_rate = 1e-3f;
  float grad_clip = 5.0f;
  uint64_t seed = 17;
  bool verbose = false;
  /// When non-empty, a resumable checkpoint (weights + Adam slots + RNG +
  /// epoch + normalizer) is written here atomically every
  /// `checkpoint_every` epochs, and a valid checkpoint already at this
  /// path is resumed from — a killed run re-launched with the same options
  /// continues its loss curve exactly where it stopped. An unreadable
  /// checkpoint logs a warning and falls back to a fresh start; a failed
  /// save logs a warning and keeps training.
  std::string checkpoint_path;
  int checkpoint_every = 1;
};

struct TrainReport {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
  double train_seconds = 0.0;
  int64_t num_parameters = 0;
  /// Epochs already completed by a resumed checkpoint (0 for a fresh run).
  int resumed_epochs = 0;
};

class QpSeeker;

/// What one planning request has had encoded so far, kept across its
/// PredictPlansMulti calls: the query embedding and its per-head attention
/// projection, the TabSketch representation of each scanned relation
/// (table [CLS] vectors are read from the TabSketch, which holds them for
/// the process), and one row per distinct plan subtree with its tree-LSTM state, output vector and per-head
/// attention keys and values (~1.3 KB a row at ci scale). Every row holds
/// exactly what a memo-less call computes for that subtree, because each
/// GEMM row is computed independently of the rest of its batch; so a memo
/// changes how much a call computes, never what it returns.
///
/// A memo serves one request: one query object and one model. The first
/// call binds both, and every call QPS_CHECKs them. It lives with the
/// request, never on the model, so a const QpSeeker stays shareable across
/// threads; the request uses it from one call at a time. It grows with the
/// distinct subtrees the request evaluates, up to `max_bytes` of rows: a
/// call that finds more drops every subtree row first (the query
/// projection and scan representations stay), which changes no
/// result, only what later calls repeat. So a memo holds at most
/// `max_bytes` plus one call's rows, and is freed with the request.
class EvalMemo {
 public:
  /// About 3 300 rows at ci scale, and more than a 200 ms search at paper
  /// scale encodes (DESIGN §9).
  static constexpr int64_t kDefaultMaxBytes = int64_t{4} << 20;

  explicit EvalMemo(int64_t max_bytes = kDefaultMaxBytes) : max_bytes_(max_bytes) {}
  EvalMemo(const EvalMemo&) = delete;
  EvalMemo& operator=(const EvalMemo&) = delete;

  /// Distinct plan subtrees held.
  int64_t rows() const { return plan_.rows(); }
  /// Bytes those rows hold: tree-LSTM (h, c, output) and attention K/V.
  int64_t bytes() const {
    return plan_.bytes() +
           static_cast<int64_t>(sizeof(float) * (keys_.size() + values_.size()));
  }

 private:
  friend class QpSeeker;
  int64_t max_bytes_;
  const QpSeeker* model_ = nullptr;
  const query::Query* query_ = nullptr;
  nn::Tensor query_emb_;    ///< 1 x query_dim
  nn::Tensor query_heads_;  ///< (heads, head_dim): query_emb_ @ Wq, per head
  encoder::PlanEncoder::Memo plan_;
  /// Attention keys and values of every subtree row, rows x (heads x
  /// head_dim) each (empty when attention is ablated).
  std::vector<float> keys_, values_;
};

/// One query with its candidate plans, the unit of cross-query fused
/// evaluation (PredictPlansMulti / the serving batch rendezvous).
struct PlanEvalRequest {
  const query::Query* query = nullptr;
  std::vector<const query::PlanNode*> plans;
  /// The request's memo, reused by every call that carries it; null
  /// encodes through a fresh memo local to the call.
  EvalMemo* memo = nullptr;
};

/// The trained system: model + normalizer + estimate annotator.
class QpSeeker {
 public:
  QpSeeker(const storage::Database& db, const stats::DatabaseStats& stats,
           QpSeekerConfig config = {}, uint64_t seed = 1234);
  QpSeeker(QpSeeker&&) noexcept;
  ~QpSeeker();

  /// Trains on labeled QEPs (fits the label normalizer first).
  TrainReport Train(const sampling::QepDataset& dataset, const TrainOptions& opts);

  /// Plan-level predictions for an arbitrary plan of `q`. Input estimates
  /// (leaf EXPLAIN stats) are annotated internally. Runs the autograd-free
  /// tensor path and consults the prediction cache when enabled.
  query::NodeStats PredictPlan(const query::Query& q, const query::PlanNode& plan) const;

  /// Batched predictions for N candidate plans of one query: one query
  /// encoding, height-batched plan encoding, and one (N x d) VAE/head pass
  /// instead of N GEMVs. Cached plans skip evaluation entirely. A
  /// one-request PredictPlansMulti; `memo` as in PlanEvalRequest.
  std::vector<query::NodeStats> PredictPlansBatch(
      const query::Query& q, const std::vector<const query::PlanNode*>& plans,
      EvalMemo* memo = nullptr) const;

  /// The one batched inference path: candidate batches from *different*
  /// queries share one VAE/head forward. Cache consultation, dedup and
  /// encoding run per request; only the final dense pass is stacked.
  /// Every miss is encoded through a memo, the request's own or a fresh
  /// call-local one: the query is embedded and projected once per memo,
  /// and only subtrees the memo lacks are advanced through the tree-LSTM
  /// and projected to attention keys and values. Because every GEMM
  /// kernel accumulates each output row in the same k-order regardless of
  /// batch row count, result[r] is bit-identical to
  /// PredictPlansBatch(*requests[r].query, requests[r].plans) — with or
  /// without a memo, whatever the memo already holds, and whatever else
  /// shares the call: the property the serving layer's determinism
  /// contract rests on.
  std::vector<std::vector<query::NodeStats>> PredictPlansMulti(
      const std::vector<PlanEvalRequest>& requests) const;

  /// Reference implementation of PredictPlan through the autograd graph —
  /// slow, kept as the ground truth for batched-equivalence tests.
  query::NodeStats PredictPlanReference(const query::Query& q,
                                        const query::PlanNode& plan) const;

  /// Per-node predictions, post-order (the plan encoder's stat dims).
  std::vector<query::NodeStats> PredictNodes(const query::Query& q,
                                             const query::PlanNode& plan) const;

  /// Enables the bounded LRU plan-prediction cache (0 disables). The cache
  /// is invalidated automatically when weights change (Train / Load).
  void EnableCache(int64_t capacity_bytes);

  /// The prediction cache, or nullptr when disabled (qpsql \cache).
  PlanPredictionCache* cache() const { return cache_.get(); }

  /// Latent mean vector (mu) of a QEP — the Figure 5 embedding.
  std::vector<float> LatentVector(const query::Query& q,
                                  const query::PlanNode& plan) const;

  /// QPAttention weights of `plan` (heads x nodes): which plan nodes the
  /// estimate attends to. Annotates, encodes and attends for this plan
  /// alone, bypassing the prediction cache. Empty for single-node plans and
  /// when attention is ablated (use_attention = false).
  nn::Tensor AttentionScores(const query::Query& q, const query::PlanNode& plan) const;

  /// Fills plan->estimated with the statistics-based annotations the model
  /// consumes (leaf cardinalities + user-defined costs).
  void AnnotateEstimates(const query::Query& q, query::PlanNode* plan) const;

  Status Save(const std::string& path) const;
  Status Load(const std::string& path);

  /// Writes an int8 quantized checkpoint (weights as quant records, the
  /// rest f32). Persists the attached quantization when one is active,
  /// else quantizes on the fly without changing this model's inference.
  Status SaveQuantized(const std::string& path) const;

  /// Quantizes all eligible weights in place for int8 inference and clears
  /// the prediction cache. Returns the number of weights quantized.
  /// Train() and Load() of a plain f32 checkpoint undo this.
  int64_t QuantizeForInference();

  /// True when inference currently runs through the int8 path.
  bool quantized() const;

  const encoder::LabelNormalizer& normalizer() const { return normalizer_; }
  const QpSeekerConfig& config() const { return config_; }
  const storage::Database& db() const { return db_; }
  const tabert::TabSketch& tabert() const { return *tabert_; }
  int64_t NumParameters() const;

 private:
  struct ForwardOut {
    nn::Var qep_embedding;
    nn::Vae::Output vae;
    nn::Var preds;  ///< 1x3 normalized
    encoder::PlanEncoder::Output plan_out;
  };

  ForwardOut Forward(const query::Query& q, const query::PlanNode& plan,
                     Rng* sample_rng) const;

  /// Query + plan encodings of pre-annotated plans through `memo`,
  /// combined into rows [first_row, first_row + annotated.size()) of the
  /// qep embedding matrix.
  void EncodeQepRows(const query::Query& q,
                     const std::vector<const query::PlanNode*>& annotated,
                     EvalMemo* memo, int64_t first_row, nn::Tensor* qep) const;

  /// Dense back half: VAE reconstruction (when enabled) + prediction head.
  /// Row r of the result depends only on row r of `qep`.
  nn::Tensor HeadTensor(const nn::Tensor& qep) const;

  /// Annotates a copy of `plan` and returns the plan encoder's
  /// (num_nodes x node_out) node matrix, post-order.
  nn::Tensor NodeMatrix(const query::Query& q, const query::PlanNode& plan) const;

  std::vector<nn::NamedParam> AllParameters() const;

  const storage::Database& db_;
  const stats::DatabaseStats& stats_;
  QpSeekerConfig config_;
  // Heap-held so QpSeeker stays movable (CostModel references the
  // estimator; member addresses must be stable across moves).
  std::unique_ptr<optimizer::CardinalityEstimator> cards_;
  std::unique_ptr<optimizer::CostModel> cost_model_;  ///< EXPLAIN-style annotations
  std::unique_ptr<tabert::TabSketch> tabert_;
  std::unique_ptr<encoder::QueryEncoder> query_encoder_;
  std::unique_ptr<encoder::PlanEncoder> plan_encoder_;
  std::unique_ptr<encoder::QpAttention> attention_;
  std::unique_ptr<nn::Vae> vae_;
  std::unique_ptr<nn::Linear> head_;
  encoder::LabelNormalizer normalizer_;

  /// Wrapper module exposing all submodules for optimizers/serialization.
  class Bundle;
  std::unique_ptr<Bundle> bundle_;

  /// Optional prediction cache. The cache locks internally, so const
  /// PredictPlan calls hit and insert through it; only EnableCache, Train
  /// and Load replace it.
  std::unique_ptr<PlanPredictionCache> cache_;
};

}  // namespace core
}  // namespace qps

#endif  // QPS_CORE_QPSEEKER_H_
