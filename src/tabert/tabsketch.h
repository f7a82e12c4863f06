// Copyright 2026 The QPSeeker Authors
//
// TabSketch: QPSeeker's stand-in for TaBERT (§4.2). TaBERT cannot be used
// offline (hundreds of MB of pretrained weights); what QPSeeker consumes
// from it is a *data-distribution-aware representation of the columns and
// tables a query touches*, conditioned on the query's predicates. TabSketch
// produces exactly that from ANALYZE statistics:
//
//   raw feature vector  = [datatype one-hot | log-scale size/ndv | moments |
//                          MCV mass profile | 16 histogram quantiles |
//                          predicate selectivity + conditional entropy]
//   representation      = fixed random ("pretrained") projection + K rounds
//                         of nonlinear mixing (emulating TaBERT's vertical
//                         attention over the top-K rows).
//
// The K ∈ {1,3} and base/large knobs mirror the paper's TaBERT configs:
// they do not change *what* is encoded, only representation width and
// compute, which is what Figure 8 measures.

#ifndef QPS_TABERT_TABSKETCH_H_
#define QPS_TABERT_TABSKETCH_H_

#include <atomic>
#include <memory>
#include <vector>

#include "nn/tensor.h"
#include "query/query.h"
#include "stats/analyze.h"
#include "storage/database.h"

namespace qps {
namespace tabert {

enum class ModelSize { kBase, kLarge };

struct TabSketchConfig {
  ModelSize size = ModelSize::kBase;
  int k = 1;  ///< TaBERT's top-K rows knob (1 or 3)
  /// Embedding width; 0 means derive from `size` (base 48, large 96).
  int embedding_dim = 0;

  int ResolvedDim() const {
    if (embedding_dim > 0) return embedding_dim;
    return size == ModelSize::kBase ? 48 : 96;
  }
};

/// Stateless-after-construction encoder of tables and columns. Every
/// unconditioned column and table representation is a fixed function of the
/// statistics, so the constructor computes them all up front; the const
/// accessors only read them (or project a predicate-conditioned column) and
/// are safe to call from any number of threads.
class TabSketch {
 public:
  TabSketch(const storage::Database& db, const stats::DatabaseStats& stats,
            TabSketchConfig config = {}, uint64_t seed = 0x7ab5);

  /// Representation of one column, optionally conditioned on a predicate
  /// over that column (paper: "we take the representation of this column
  /// filtered based on this predicate"). Output: 1 x embedding_dim.
  nn::Tensor ColumnRepresentation(int table, int column,
                                  const query::FilterPredicate* pred) const;

  /// [CLS]-style whole-table representation (pooled column sketches plus
  /// table-level size features). Output: 1 x embedding_dim, held for the
  /// TabSketch's lifetime.
  const nn::Tensor& TableRepresentation(int table) const;

  /// Representation of the data a scan node processes: the filtered column
  /// if the query filters this relation, otherwise the table [CLS].
  nn::Tensor ScanDataRepresentation(const query::Query& q, int rel) const;

  int embedding_dim() const { return config_.ResolvedDim(); }
  const TabSketchConfig& config() const { return config_; }

  /// Latency accounting (Figure 8 right: avg time spent in TaBERT). Counts
  /// query-time projections only: the constructor's eager pass over the
  /// unconditioned representations ends with a reset.
  double total_time_ms() const {
    return total_time_ms_.load(std::memory_order_relaxed);
  }
  int64_t num_calls() const { return num_calls_.load(std::memory_order_relaxed); }
  /// Mixing rounds run by those projections: the work that K and the model
  /// size scale, counted exactly where wall time is noisy.
  int64_t num_mixing_rounds() const {
    return num_mixing_rounds_.load(std::memory_order_relaxed);
  }
  void ResetTiming() const {
    total_time_ms_.store(0.0, std::memory_order_relaxed);
    num_calls_.store(0, std::memory_order_relaxed);
    num_mixing_rounds_.store(0, std::memory_order_relaxed);
  }

  /// Raw (pre-projection) feature width: datatype(3) + size/ndv(3) +
  /// moments(4) + MCV(4) + histogram quantiles(16) + predicate(3).
  static constexpr int kRawFeatures = 33;

 private:
  nn::Tensor RawColumnFeatures(int table, int column,
                               const query::FilterPredicate* pred) const;
  nn::Tensor Project(const nn::Tensor& raw) const;

  const storage::Database& db_;
  const stats::DatabaseStats& stats_;
  TabSketchConfig config_;
  nn::Tensor projection_;  ///< kRawFeatures x dim, fixed at construction
  nn::Tensor mixer_;       ///< dim x dim, applied K times ("vertical attention")
  /// Unconditioned representations, indexed [table][column] and [table].
  std::vector<std::vector<nn::Tensor>> column_reps_;
  std::vector<nn::Tensor> table_reps_;
  mutable std::atomic<double> total_time_ms_{0.0};
  mutable std::atomic<int64_t> num_calls_{0};
  mutable std::atomic<int64_t> num_mixing_rounds_{0};
};

}  // namespace tabert
}  // namespace qps

#endif  // QPS_TABERT_TABSKETCH_H_
