// Copyright 2026 The QPSeeker Authors

#include "encoder/plan_encoder.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace qps {
namespace encoder {

using nn::Tensor;
using nn::Var;

PlanEncoder::PlanEncoder(const storage::Database& db, const tabert::TabSketch& tabert,
                         const EncoderConfig& config, Rng* rng)
    : tabert_(tabert), config_(config) {
  // Input layout (header): the children's part, node_out wide, then the
  // node's own [est(3) | op one-hot | data repr | relation one-hot sum].
  input_dim_ = config_.node_out + 3 + query::kNumOpTypes + tabert_.embedding_dim() +
               db.num_tables();
  cell_ = std::make_unique<nn::LstmCell>(input_dim_, config_.node_out, rng, "plan_cell");
  out_proj_ = std::make_unique<nn::Linear>(config_.node_out, config_.node_out, rng,
                                           "plan_out");
  RegisterChild("cell", cell_.get());
  RegisterChild("out", out_proj_.get());
}

void PlanEncoder::WriteOwnInput(const query::Query& q, const query::PlanNode& node,
                                const LabelNormalizer& norm, ScanReps* scan_reps,
                                float* own) const {
  const int64_t edim = tabert_.embedding_dim();
  float* op_onehot = own + 3;
  float* data_repr = op_onehot + query::kNumOpTypes;
  float* rels = data_repr + edim;
  // Own-node EXPLAIN-style estimates (normalized); for leaves this is what
  // the paper feeds from EXPLAIN, and providing the same signal at join
  // nodes lets the learned cost model generalize to plan depths never seen
  // in training (the Figure 9 transfer setting).
  const auto own3 = norm.Normalize(node.estimated);
  own[0] = own3[0];
  own[1] = own3[1];
  own[2] = own3[2];
  op_onehot[static_cast<int>(node.op)] = 1.0f;
  if (config_.use_data_repr && node.is_leaf()) {
    // TabSketch representation of the data the scan processes: the
    // filtered column, or the table [CLS].
    auto it = scan_reps->find(node.rel);
    if (it == scan_reps->end()) {
      it = scan_reps->emplace(node.rel, tabert_.ScanDataRepresentation(q, node.rel)).first;
    }
    std::memcpy(data_repr, it->second.data(), sizeof(float) * static_cast<size_t>(edim));
  }
  // A join reads the mean [CLS] of every relation joined so far; every
  // node reads its subtree's relation one-hot sum.
  const bool pool_cls = config_.use_data_repr && !node.is_leaf();
  const uint64_t mask = node.RelMask();
  int count = 0;
  for (int r = 0; r < q.num_relations(); ++r) {
    if (!((mask >> r) & 1)) continue;
    const int table = q.relations[static_cast<size_t>(r)].table_id;
    rels[table] += 1.0f;
    if (pool_cls) {
      const float* rep = tabert_.TableRepresentation(table).data();
      for (int64_t j = 0; j < edim; ++j) data_repr[j] += rep[j];
      ++count;
    }
  }
  if (count > 0) {
    const float inv = 1.0f / static_cast<float>(count);
    for (int64_t j = 0; j < edim; ++j) data_repr[j] *= inv;
  }
}

PlanEncoder::NodeState PlanEncoder::EncodeNode(const query::Query& q,
                                               const query::PlanNode& node,
                                               const LabelNormalizer& norm,
                                               ScanReps* scan_reps, Output* out) const {
  const int dvec = data_vec_dim();
  Tensor own(1, input_dim_ - config_.node_out);
  WriteOwnInput(q, node, norm, scan_reps, own.data());
  Var input;
  nn::LstmCell::State state;
  if (node.is_leaf()) {
    // Leaves have no children: a zero child part tells the cell so.
    input = nn::ConcatCols({nn::Constant(Tensor::Zeros(1, config_.node_out)),
                            nn::Constant(std::move(own))});
    state = cell_->InitialState();
  } else {
    NodeState left = EncodeNode(q, *node.left, norm, scan_reps, out);
    NodeState right = EncodeNode(q, *node.right, norm, scan_reps, out);
    // Mean of the children's data vectors (information flowing up) and of
    // their own stat predictions (last 3 dims).
    Var ldata = nn::SliceCols(left.output, 0, dvec);
    Var rdata = nn::SliceCols(right.output, 0, dvec);
    Var child_data = nn::Scale(nn::Add(ldata, rdata), 0.5f);
    Var lstats = nn::SliceCols(left.output, dvec, config_.node_out);
    Var rstats = nn::SliceCols(right.output, dvec, config_.node_out);
    Var stats_in = nn::Scale(nn::Add(lstats, rstats), 0.5f);
    input = nn::ConcatCols({child_data, stats_in, nn::Constant(std::move(own))});
    // LSTM state: children's states pooled.
    state.h = nn::Scale(nn::Add(left.lstm.h, right.lstm.h), 0.5f);
    state.c = nn::Scale(nn::Add(left.lstm.c, right.lstm.c), 0.5f);
  }
  QPS_DCHECK(input->value.cols() == input_dim_);

  NodeState result;
  result.lstm = cell_->Forward(input, state);
  result.output = out_proj_->Forward(result.lstm.h);
  out->node_outputs.push_back(result.output);
  out->nodes.push_back(&node);
  return result;
}

PlanEncoder::Output PlanEncoder::Encode(const query::Query& q,
                                        const query::PlanNode& plan,
                                        const LabelNormalizer& norm) const {
  QPS_TRACE_SPAN("encode.plan");
  Output out;
  ScanReps scan_reps;
  NodeState root = EncodeNode(q, plan, norm, &scan_reps, &out);
  out.root = root.output;
  out.node_matrix = nn::ConcatRows(out.node_outputs);
  return out;
}

bool PlanEncoder::Memo::Key::operator==(const Key& o) const {
  return op == o.op && rel == o.rel && left == o.left && right == o.right &&
         est[0] == o.est[0] && est[1] == o.est[1] && est[2] == o.est[2];
}

size_t PlanEncoder::Memo::KeyHash::operator()(const Key& k) const {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](uint64_t v) { h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2); };
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.op)));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.rel)));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.left)));
  mix(static_cast<uint64_t>(static_cast<uint32_t>(k.right)));
  mix(k.est[0]);
  mix(k.est[1]);
  mix(k.est[2]);
  return static_cast<size_t>(h);
}

const float* PlanEncoder::Memo::output(int64_t row) const {
  QPS_DCHECK(row >= 0 && row < rows_);
  return out_.data() + row * width_;
}

void PlanEncoder::Memo::ClearRows() {
  rows_ = 0;
  index_.clear();
  h_.clear();
  c_.clear();
  out_.clear();
}

void PlanEncoder::EncodeBatch(const query::Query& q,
                              const std::vector<const query::PlanNode*>& plans,
                              const LabelNormalizer& norm, Memo* memo,
                              std::vector<std::vector<int>>* rows) const {
  QPS_TRACE_SPAN("encode.plan_batch");
  static metrics::Counter* const rows_counter =
      metrics::Registry::Global().GetCounter("qps.encode.rows");
  static metrics::Counter* const reused_counter =
      metrics::Registry::Global().GetCounter("qps.encode.rows_reused");
  const int64_t hid = config_.node_out;
  if (memo->width_ == 0) memo->width_ = hid;
  QPS_CHECK(memo->width_ == hid) << "EncodeBatch: memo rows are " << memo->width_
                                 << " wide, this encoder's are " << hid;

  // Look every node up in the memo, bottom-up. A node's encoder input is
  // fully determined by its operator, scan relation, (normalized)
  // estimated stats, and its children's encoded states, so the key holds
  // exactly those fields, child rows included: matching never changes a
  // result, it only skips recomputing it. MCTS candidates of one query
  // share many subtrees, within a batch and across the batches of a
  // request: at 64 rollouts about half the lookups hit.
  //
  // A node the memo lacks becomes a new row. Its level counts new rows
  // only: 0 when it is a leaf or both children are already encoded, else
  // one above its highest new child. Children always sit at lower levels,
  // so advancing levels in order satisfies the bottom-up dependency while
  // batching across plans.
  struct Fresh {
    const query::PlanNode* node;
    int left, right;  ///< children's rows (-1 for leaves)
    int level;
  };
  const int64_t first_new = memo->rows_;
  std::vector<Fresh> fresh;  ///< row first_new + i is fresh[i]
  int64_t walked = 0;
  rows->assign(plans.size(), {});
  std::function<int(const query::PlanNode&, std::vector<int>*)> walk =
      [&](const query::PlanNode& nd, std::vector<int>* out) -> int {
    Memo::Key key;
    key.op = static_cast<int32_t>(nd.op);
    key.rel = nd.rel;
    key.left = -1;
    key.right = -1;
    int level = 0;
    if (!nd.is_leaf()) {
      QPS_CHECK(nd.left != nullptr && nd.right != nullptr)
          << "EncodeBatch: join node with a missing child";
      key.left = walk(*nd.left, out);
      key.right = walk(*nd.right, out);
      for (const int child : {key.left, key.right}) {
        if (child >= first_new) {
          level = std::max(level, fresh[static_cast<size_t>(child - first_new)].level + 1);
        }
      }
    }
    std::memcpy(&key.est[0], &nd.estimated.cardinality, sizeof(uint64_t));
    std::memcpy(&key.est[1], &nd.estimated.cost, sizeof(uint64_t));
    std::memcpy(&key.est[2], &nd.estimated.runtime_ms, sizeof(uint64_t));
    const auto [it, inserted] =
        memo->index_.try_emplace(key, static_cast<int>(memo->rows_));
    if (inserted) {
      fresh.push_back(Fresh{&nd, key.left, key.right, level});
      ++memo->rows_;
    }
    out->push_back(it->second);
    ++walked;
    return it->second;
  };
  for (size_t p = 0; p < plans.size(); ++p) walk(*plans[p], &(*rows)[p]);
  const int64_t added = static_cast<int64_t>(fresh.size());
  rows_counter->Increment(added);
  reused_counter->Increment(walked - added);

  const size_t total = static_cast<size_t>(memo->rows_ * hid);
  memo->h_.resize(total);
  memo->c_.resize(total);
  memo->out_.resize(total);
  int max_level = -1;
  for (const Fresh& f : fresh) max_level = std::max(max_level, f.level);
  std::vector<std::vector<int64_t>> levels(static_cast<size_t>(max_level + 1));
  for (int64_t i = 0; i < added; ++i) {
    levels[static_cast<size_t>(fresh[static_cast<size_t>(i)].level)].push_back(i);
  }

  Tensor x, h_batch, c_batch, o_batch;
  for (const auto& level : levels) {
    const int64_t batch = static_cast<int64_t>(level.size());
    x = Tensor(batch, input_dim_);
    h_batch = Tensor(batch, hid);
    c_batch = Tensor(batch, hid);
    for (int64_t b = 0; b < batch; ++b) {
      const Fresh& f = fresh[static_cast<size_t>(level[static_cast<size_t>(b)])];
      const query::PlanNode& node = *f.node;
      float* row = x.data() + b * input_dim_;
      WriteOwnInput(q, node, norm, &memo->scan_reps_, row + hid);
      if (node.is_leaf()) continue;
      // The children's pooled part, [child data | child stats(3)] and the
      // LSTM state: the mean of the children's rows.
      const float* lo = memo->out_.data() + f.left * hid;
      const float* ro = memo->out_.data() + f.right * hid;
      const float* lh = memo->h_.data() + f.left * hid;
      const float* rh = memo->h_.data() + f.right * hid;
      const float* lc = memo->c_.data() + f.left * hid;
      const float* rc = memo->c_.data() + f.right * hid;
      float* hb = h_batch.data() + b * hid;
      float* cb = c_batch.data() + b * hid;
      for (int64_t j = 0; j < hid; ++j) {
        row[j] = 0.5f * (lo[j] + ro[j]);
        hb[j] = 0.5f * (lh[j] + rh[j]);
        cb[j] = 0.5f * (lc[j] + rc[j]);
      }
    }

    cell_->ForwardTensor(x, &h_batch, &c_batch);
    out_proj_->ForwardTensor(h_batch, &o_batch);
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t row = first_new + level[static_cast<size_t>(b)];
      std::memcpy(memo->h_.data() + row * hid, h_batch.data() + b * hid,
                  sizeof(float) * static_cast<size_t>(hid));
      std::memcpy(memo->c_.data() + row * hid, c_batch.data() + b * hid,
                  sizeof(float) * static_cast<size_t>(hid));
      std::memcpy(memo->out_.data() + row * hid, o_batch.data() + b * hid,
                  sizeof(float) * static_cast<size_t>(hid));
    }
  }
}

}  // namespace encoder
}  // namespace qps
