// Copyright 2026 The QPSeeker Authors

#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "eval/metrics.h"
#include "obs/accuracy.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qps {
namespace exec {

using query::OpType;
using query::PlanNode;
using query::Query;
using storage::kRowsPerBlock;

void WorkCounters::Add(const WorkCounters& other) {
  blocks_read += other.blocks_read;
  random_reads += other.random_reads;
  tuples_scanned += other.tuples_scanned;
  hash_build += other.hash_build;
  hash_probe += other.hash_probe;
  sort_compares += other.sort_compares;
  loop_compares += other.loop_compares;
  output_tuples += other.output_tuples;
}

double WorkCounters::RuntimeMs() const {
  static const WorkWeights w;
  return static_cast<double>(blocks_read) * w.block_read +
         static_cast<double>(random_reads) * w.random_read +
         static_cast<double>(tuples_scanned) * w.tuple_scan +
         static_cast<double>(hash_build) * w.hash_build +
         static_cast<double>(hash_probe) * w.hash_probe +
         static_cast<double>(sort_compares) * w.sort_compare +
         static_cast<double>(loop_compares) * w.loop_compare +
         static_cast<double>(output_tuples) * w.output_tuple;
}

int Executor::RowSet::ColForRel(int rel) const {
  for (size_t i = 0; i < rels.size(); ++i) {
    if (rels[i] == rel) return static_cast<int>(i);
  }
  return -1;
}

Executor::Executor(const storage::Database& db, ExecOptions opts)
    : db_(db), opts_(opts) {}

namespace {

/// log2(n) comparisons per element, floor 1.
int64_t SortCompares(int64_t n) {
  if (n <= 1) return n;
  return static_cast<int64_t>(static_cast<double>(n) *
                              std::max(1.0, std::log2(static_cast<double>(n))));
}

bool RowPassesFilters(const storage::Table& table,
                      const std::vector<query::FilterPredicate>& filters,
                      uint32_t row) {
  for (const auto& f : filters) {
    const double v = table.column(f.column).GetDouble(row);
    if (!storage::CompareDoubles(v, f.op, f.value.AsDouble())) return false;
  }
  return true;
}

}  // namespace

StatusOr<double> Executor::Execute(const Query& q, PlanNode* plan) {
  QPS_CHECK(plan != nullptr);
  static metrics::Counter* const executions_counter =
      metrics::Registry::Global().GetCounter("qps.exec.executions");
  static metrics::Histogram* const wall_hist =
      metrics::Registry::Global().GetHistogram("qps.exec.wall_ms");
  QPS_TRACE_SPAN("exec.execute");
  executions_counter->Increment();
  // The executor dereferences relation/column indices on every operator;
  // reject malformed (e.g. fuzz-mutated) queries at the boundary instead.
  QPS_RETURN_IF_ERROR(q.Validate(db_));
  Timer timer;
  total_ = WorkCounters{};
  node_wall_ms_.clear();
  auto result = ExecNode(q, plan);
  wall_hist->Record(timer.ElapsedMillis());
  if (!result.ok()) return result.status();
  return static_cast<double>(result->num_rows());
}

StatusOr<Executor::RowSet> Executor::ExecNode(const Query& q, PlanNode* node) {
  Timer timer;
  auto result = node->is_leaf() ? ExecScan(q, node) : ExecJoin(q, node);
  node_wall_ms_[node] = timer.ElapsedMillis();
  return result;
}

StatusOr<Executor::RowSet> Executor::ExecScan(const Query& q, PlanNode* node) {
  static metrics::Counter* const scans_counter =
      metrics::Registry::Global().GetCounter("qps.exec.scans");
  QPS_TRACE_SPAN_VAR(span, "exec.scan");
  span.AddAttr("op", query::OpTypeName(node->op));
  scans_counter->Increment();
  const auto& ref = q.relations[static_cast<size_t>(node->rel)];
  const storage::Table& table = db_.table(ref.table_id);
  const auto filters = q.FiltersFor(node->rel);
  const int64_t n = table.num_rows();

  WorkCounters c;
  RowSet out;
  out.rels = {node->rel};
  out.cols.resize(1);

  // Pick the filter driven through the index for Index/Bitmap scans:
  // the first filter on the scanned relation (PostgreSQL would pick the
  // most selective; samplers choose operators blindly, as in the paper).
  int index_filter = -1;
  if (node->op != OpType::kSeqScan && !filters.empty()) index_filter = 0;

  if (index_filter < 0) {
    // Full scan (SeqScan always; Index/Bitmap degenerate to index sweep).
    for (uint32_t r = 0; r < static_cast<uint32_t>(n); ++r) {
      if (RowPassesFilters(table, filters, r)) out.cols[0].push_back(r);
    }
    c.tuples_scanned += n;
    if (node->op == OpType::kSeqScan) {
      c.blocks_read += table.num_blocks();
    } else {
      // Sweeping the whole index with heap fetches: random access per tuple
      // (index scan) or per block after sorting tids (bitmap).
      c.random_reads +=
          node->op == OpType::kIndexScan ? n : table.num_blocks() + table.IndexHeight();
    }
  } else {
    const auto& f = filters[static_cast<size_t>(index_filter)];
    const auto& perm = table.OrderedIndex(f.column);
    const storage::Column& col = table.column(f.column);
    const double v = f.value.AsDouble();
    // Binary search the sorted permutation for the qualifying range.
    auto lower = std::partition_point(perm.begin(), perm.end(), [&](uint32_t r) {
      return col.GetDouble(r) < v;
    });
    auto upper = std::partition_point(lower, perm.end(), [&](uint32_t r) {
      return col.GetDouble(r) <= v;
    });
    std::vector<uint32_t> candidates;
    switch (f.op) {
      case storage::CompareOp::kEq:
        candidates.assign(lower, upper);
        break;
      case storage::CompareOp::kLt:
        candidates.assign(perm.begin(), lower);
        break;
      case storage::CompareOp::kLe:
        candidates.assign(perm.begin(), upper);
        break;
      case storage::CompareOp::kGt:
        candidates.assign(upper, perm.end());
        break;
      case storage::CompareOp::kGe:
        candidates.assign(lower, perm.end());
        break;
      case storage::CompareOp::kNe: {
        candidates.assign(perm.begin(), lower);
        candidates.insert(candidates.end(), upper, perm.end());
        break;
      }
    }
    std::vector<query::FilterPredicate> rest;
    for (size_t i = 0; i < filters.size(); ++i) {
      if (static_cast<int>(i) != index_filter) rest.push_back(filters[i]);
    }
    for (uint32_t r : candidates) {
      if (RowPassesFilters(table, rest, r)) out.cols[0].push_back(r);
    }
    const int64_t matched = static_cast<int64_t>(candidates.size());
    c.tuples_scanned += matched;
    c.random_reads += table.IndexHeight();
    if (node->op == OpType::kIndexScan) {
      // One heap fetch per matching tuple, in index order (random).
      c.random_reads += matched;
    } else {
      // Bitmap: sort tids, fetch each block once (sequential-ish).
      std::unordered_set<int64_t> blocks;
      for (uint32_t r : candidates) blocks.insert(r / kRowsPerBlock);
      c.blocks_read += static_cast<int64_t>(blocks.size());
      c.sort_compares += SortCompares(matched);
    }
    // Row order differs from heap order for index scans; keep heap order for
    // determinism downstream.
    std::sort(out.cols[0].begin(), out.cols[0].end());
  }

  c.output_tuples += static_cast<int64_t>(out.cols[0].size());
  total_.Add(c);

  node->actual.cardinality = static_cast<double>(out.cols[0].size());
  node->actual.runtime_ms = c.RuntimeMs();
  node->actual.cost = UserDefinedNodeCost(db_, q, *node, 0.0, 0.0,
                                          node->actual.cardinality);
  if (opts_.timeout_ms > 0.0 && total_.RuntimeMs() > opts_.timeout_ms) {
    return Status::ResourceExhausted("timeout during scan");
  }
  return out;
}

StatusOr<Executor::RowSet> Executor::ExecJoin(const Query& q, PlanNode* node) {
  static metrics::Counter* const joins_counter =
      metrics::Registry::Global().GetCounter("qps.exec.joins");
  QPS_TRACE_SPAN_VAR(span, "exec.join");
  span.AddAttr("op", query::OpTypeName(node->op));
  joins_counter->Increment();
  QPS_ASSIGN_OR_RETURN(RowSet left, ExecNode(q, node->left.get()));
  QPS_ASSIGN_OR_RETURN(RowSet right, ExecNode(q, node->right.get()));
  // Fault point: a join operator may fail mid-plan (labels of completed
  // children stay filled in, as with a genuine resource abort).
  QPS_RETURN_IF_ERROR(fault::Check("exec.join"));
  QPS_CHECK(!node->join_preds.empty()) << "join without predicates";

  const int64_t nl = left.num_rows();
  const int64_t nr = right.num_rows();

  // Resolve join keys: for each predicate, the (rowset column, table column)
  // on each side.
  struct KeySpec {
    int left_col;        // column in left RowSet
    int left_table_col;  // column in base table
    int left_table;
    int right_col;
    int right_table_col;
    int right_table;
  };
  std::vector<KeySpec> keys;
  for (int p : node->join_preds) {
    const auto& jp = q.joins[static_cast<size_t>(p)];
    KeySpec k;
    int lrel = jp.left_rel, lcol = jp.left_column;
    int rrel = jp.right_rel, rcol = jp.right_column;
    if (left.ColForRel(lrel) < 0) {
      std::swap(lrel, rrel);
      std::swap(lcol, rcol);
    }
    k.left_col = left.ColForRel(lrel);
    k.right_col = right.ColForRel(rrel);
    QPS_CHECK(k.left_col >= 0 && k.right_col >= 0) << "join predicate sides unresolved";
    k.left_table = q.relations[static_cast<size_t>(lrel)].table_id;
    k.left_table_col = lcol;
    k.right_table = q.relations[static_cast<size_t>(rrel)].table_id;
    k.right_table_col = rcol;
    keys.push_back(k);
  }

  auto key_of = [&](const RowSet& rs, bool is_left, int64_t row) {
    // Composite key folded with a hash; exactness is preserved by comparing
    // doubles directly (we fold bit patterns, collisions re-checked below).
    // The seed is FNV's 64-bit offset basis missing its last digit, as in
    // serve::TenantHash; any seed works for an in-memory join table.
    uint64_t h = 1469598103934665603ULL;
    for (const auto& k : keys) {
      const int col = is_left ? k.left_col : k.right_col;
      const int table = is_left ? k.left_table : k.right_table;
      const int tcol = is_left ? k.left_table_col : k.right_table_col;
      const uint32_t rid = rs.cols[static_cast<size_t>(col)][static_cast<size_t>(row)];
      const double v = db_.table(table).column(tcol).GetDouble(rid);
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      h = (h ^ bits) * 1099511628211ULL;
    }
    return h;
  };

  // Build on the right input (PostgreSQL hashes the inner relation).
  std::unordered_multimap<uint64_t, int64_t> hash;
  hash.reserve(static_cast<size_t>(nr));
  for (int64_t r = 0; r < nr; ++r) hash.emplace(key_of(right, false, r), r);

  RowSet out;
  out.rels = left.rels;
  out.rels.insert(out.rels.end(), right.rels.begin(), right.rels.end());
  out.cols.resize(out.rels.size());

  auto exact_match = [&](int64_t lrow, int64_t rrow) {
    for (const auto& k : keys) {
      const uint32_t lrid =
          left.cols[static_cast<size_t>(k.left_col)][static_cast<size_t>(lrow)];
      const uint32_t rrid =
          right.cols[static_cast<size_t>(k.right_col)][static_cast<size_t>(rrow)];
      const double lv = db_.table(k.left_table).column(k.left_table_col).GetDouble(lrid);
      const double rv =
          db_.table(k.right_table).column(k.right_table_col).GetDouble(rrid);
      if (lv != rv) return false;
    }
    return true;
  };

  int64_t out_rows = 0;
  for (int64_t l = 0; l < nl; ++l) {
    const uint64_t h = key_of(left, true, l);
    auto range = hash.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      const int64_t r = it->second;
      if (!exact_match(l, r)) continue;
      for (size_t cidx = 0; cidx < left.cols.size(); ++cidx) {
        out.cols[cidx].push_back(left.cols[cidx][static_cast<size_t>(l)]);
      }
      for (size_t cidx = 0; cidx < right.cols.size(); ++cidx) {
        out.cols[left.cols.size() + cidx].push_back(
            right.cols[cidx][static_cast<size_t>(r)]);
      }
      ++out_rows;
      if (out_rows > opts_.max_intermediate_rows) {
        node->actual.cardinality = static_cast<double>(out_rows);
        return Status::ResourceExhausted("intermediate result too large");
      }
    }
  }

  // Synthesize per-operator work. Output tuples are operator-independent;
  // the work profile is not.
  WorkCounters c;
  switch (node->op) {
    case OpType::kHashJoin:
      c.hash_build += nr;
      c.hash_probe += nl;
      break;
    case OpType::kMergeJoin:
      c.sort_compares += SortCompares(nl) + SortCompares(nr);
      c.hash_probe += nl + nr;  // merge pass touches every tuple once
      break;
    case OpType::kNestedLoopJoin:
      c.loop_compares += nl * std::max<int64_t>(nr, 1);
      break;
    default:
      QPS_CHECK(false) << "not a join operator";
  }
  c.output_tuples += out_rows;
  total_.Add(c);

  node->actual.cardinality = static_cast<double>(out_rows);
  node->actual.runtime_ms = c.RuntimeMs() + node->left->actual.runtime_ms +
                            node->right->actual.runtime_ms;
  node->actual.cost =
      UserDefinedNodeCost(db_, q, *node, node->left->actual.cardinality,
                          node->right->actual.cardinality,
                          node->actual.cardinality) +
      node->left->actual.cost + node->right->actual.cost;
  if (opts_.timeout_ms > 0.0 && total_.RuntimeMs() > opts_.timeout_ms) {
    return Status::ResourceExhausted("timeout during join");
  }
  return out;
}

std::string ExplainAnalysis::ToString() const {
  std::ostringstream os;
  for (const auto& row : rows) {
    for (int i = 0; i < row.depth; ++i) os << "  ";
    os << "-> " << row.label
       << StrFormat("  (est rows=%.0f actual rows=%.0f q-err=%.2f sim=%.3fms "
                    "wall=%.3fms)",
                    row.est_rows, row.actual_rows, row.q_error, row.sim_ms,
                    row.wall_ms);
    os << "\n";
  }
  os << StrFormat("Execution: %.0f rows, %.3f ms wall", root_rows, total_wall_ms);
  return os.str();
}

StatusOr<ExplainAnalysis> Executor::ExplainAnalyze(const Query& q, PlanNode* plan) {
  QPS_CHECK(plan != nullptr);
  QPS_TRACE_SPAN("exec.explain_analyze");
  Timer timer;
  auto card = Execute(q, plan);
  if (!card.ok()) return card.status();

  ExplainAnalysis out;
  out.root_rows = *card;
  out.total_wall_ms = timer.ElapsedMillis();

  // Pre-order walk mirroring PlanNode::ToString, with the same q-error
  // definition as the evaluation pipeline (eval::QError, floor 1).
  const std::function<void(const PlanNode&, int)> visit = [&](const PlanNode& node,
                                                              int depth) {
    ExplainRow row;
    row.node = &node;
    row.depth = depth;
    row.label = query::OpTypeName(node.op);
    if (node.is_leaf() && node.rel >= 0) {
      const auto& ref = q.relations[static_cast<size_t>(node.rel)];
      row.label += " on " + db_.table(ref.table_id).name() + " " + ref.alias;
    }
    row.est_rows = node.estimated.cardinality;
    row.actual_rows = node.actual.cardinality;
    row.q_error = eval::QError(row.est_rows, row.actual_rows);
    row.sim_ms = node.actual.runtime_ms;
    const auto it = node_wall_ms_.find(&node);
    row.wall_ms = it != node_wall_ms_.end() ? it->second : 0.0;
    out.rows.push_back(row);
    if (node.left != nullptr) visit(*node.left, depth + 1);
    if (node.right != nullptr) visit(*node.right, depth + 1);
  };
  visit(*plan, 0);

  // Close the serving loop: the root-node prediction/actual pair feeds the
  // global accuracy tracker so the drift gauges reflect executed traffic.
  if (!opts_.accuracy_backend.empty()) {
    obs::AccuracySample sample;
    sample.backend = opts_.accuracy_backend;
    sample.predicted_rows = plan->estimated.cardinality;
    sample.actual_rows = *card;
    sample.predicted_ms = plan->estimated.runtime_ms;
    sample.actual_ms = plan->actual.runtime_ms;
    if (obs::AccuracyTracker::Global().Observe(sample)) {
      static metrics::Counter* const feedback_samples =
          metrics::Registry::Global().GetCounter("qps.exec.feedback_samples");
      feedback_samples->Increment();
    }
  }
  return out;
}

double UserDefinedNodeCost(const storage::Database& db, const Query& q,
                           const query::PlanNode& node, double left_rows,
                           double right_rows, double out_rows) {
  // Paper §5.1 user-defined cost model, PostgreSQL-style constants.
  constexpr double kRandomPageCost = 4.0;
  constexpr double kCpuTupleCost = 0.01;
  if (query::IsScan(node.op)) {
    const auto& ref = q.relations[static_cast<size_t>(node.rel)];
    const storage::Table& t = db.table(ref.table_id);
    const double tbl_blocks = static_cast<double>(t.num_blocks());
    const double leaf_pages = static_cast<double>(t.IndexLeafPages());
    const double height = static_cast<double>(t.IndexHeight());
    switch (node.op) {
      case OpType::kSeqScan:
        return tbl_blocks + kRandomPageCost +
               leaf_pages / 2.0 * kCpuTupleCost +
               static_cast<double>(t.num_rows()) * kCpuTupleCost;
      case OpType::kIndexScan:
        return height * kRandomPageCost + leaf_pages / 2.0 * kCpuTupleCost +
               out_rows * kCpuTupleCost * 2.0;
      case OpType::kBitmapIndexScan:
        return height * kRandomPageCost +
               std::log2(std::max(2.0, tbl_blocks)) * kCpuTupleCost +
               out_rows * kCpuTupleCost;
      default:
        break;
    }
    return 0.0;
  }
  const double a = std::max(left_rows, 1.0);
  const double b = std::max(right_rows, 1.0);
  switch (node.op) {
    case OpType::kMergeJoin:
      return (a * std::log2(a + 1.0) + b * std::log2(b + 1.0) + a + b) * kCpuTupleCost +
             out_rows * kCpuTupleCost;
    case OpType::kHashJoin:
      return (a + 2.0 * b) * kCpuTupleCost + out_rows * kCpuTupleCost;
    case OpType::kNestedLoopJoin: {
      return (a * b * 0.01 + a + b) * kCpuTupleCost + out_rows * kCpuTupleCost;
    }
    default:
      break;
  }
  return 0.0;
}

}  // namespace exec
}  // namespace qps
