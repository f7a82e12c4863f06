// Copyright 2026 The QPSeeker Authors
//
// Cross-query micro-batching for the plan service. Planning a query with
// MCTS issues a stream of candidate-batch evaluations; with N queries in
// flight those streams interleave, and each evaluation alone under-fills
// the model's batched GEMM path. The rendezvous is the meeting point: a
// request thread calls Evaluate() mid-planning, parks, and a *leader* —
// the thread whose arrival fills the batch, or whose flush timeout expires
// first — fuses every parked request into one QpSeeker::PredictPlansMulti
// call and distributes the per-request results.
//
// Two contracts the serving layer depends on:
//
//  1. One flush at a time. A rendezvous runs its fused forwards one after
//     another, so requests arriving during a flush park and ride the next
//     one instead of starting forwards of their own. This is a batching
//     policy, not the model's concurrency guard: a const QpSeeker is safe
//     to call from any number of threads (planner_api.h), so the
//     rendezvous of two model generations, or of two tenants sharing one
//     model, may flush at the same time.
//  2. Determinism, by construction. PredictPlansBatch is PredictPlansMulti
//     of one request, and PredictPlansMulti encodes, dedups and caches per
//     request over row-independent dense kernels, so the NodeStats a
//     request receives are bit-identical no matter which other queries it
//     shared a flush with — including sharing with none. Each parked call
//     carries its own request's core::EvalMemo, so a fused flush encodes
//     every request through that request's memo and never shares encoded
//     rows between requests; what a memo holds changes only how much is
//     computed, not the bits. Plans produced under load are therefore
//     bit-identical to serial planning.

#ifndef QPS_SERVE_BATCH_RENDEZVOUS_H_
#define QPS_SERVE_BATCH_RENDEZVOUS_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "core/qpseeker.h"

namespace qps {
namespace obs {
class OwnedHistogram;
}  // namespace obs

namespace serve {

struct BatchRendezvousOptions {
  /// Flush as soon as this many requests are parked (hard cap per flush).
  int max_batch = 16;

  /// How long an arriving request waits for companions before flushing
  /// anyway. The *effective* target is min(expected in-flight queries,
  /// max_batch): a lone request never waits at all, so single-client
  /// latency pays nothing for the batching machinery.
  double flush_timeout_ms = 0.5;
};

class BatchRendezvous {
 public:
  /// Flush totals, as PlanService::Stats reports them.
  struct Stats {
    int64_t flushes = 0;
    int64_t fused_queries = 0;  ///< sum of batch sizes (queries per flush)
    int64_t fused_plans = 0;    ///< candidate plans across all flushes
    int64_t max_fused = 0;      ///< largest single flush, in queries
    double MeanBatch() const {
      return flushes > 0 ? static_cast<double>(fused_queries) /
                               static_cast<double>(flushes)
                         : 0.0;
    }

    /// Snapshot of the two flush histograms a rendezvous records into.
    static Stats Of(const obs::OwnedHistogram& batch_size,
                    const obs::OwnedHistogram& batch_plans);
  };

  /// Every flush records its query count into `batch_size`
  /// (qps.serve.batch_size) and its candidate-plan count into
  /// `batch_plans` (qps.serve.batch_plans). Both are non-owning and must
  /// outlive the rendezvous: a service hands the same pair to the
  /// rendezvous of every model generation it serves, so flushes on a
  /// retired generation stay counted exactly once.
  BatchRendezvous(const core::QpSeeker* model, BatchRendezvousOptions options,
                  obs::OwnedHistogram* batch_size,
                  obs::OwnedHistogram* batch_plans);

  /// Evaluates `plans` for `q`, fused with whatever other requests are in
  /// flight. Blocks until the result is available. Safe to call from many
  /// threads; results match QpSeeker::PredictPlansBatch bit for bit.
  /// `memo` is the calling request's (core::EvalMemo; null = none); the
  /// flush that serves this call encodes through it, whichever thread
  /// leads that flush.
  std::vector<query::NodeStats> Evaluate(
      const query::Query& q, const std::vector<const query::PlanNode*>& plans,
      core::EvalMemo* memo = nullptr);

  /// Concurrency hint: how many planning requests are currently in flight.
  /// The flush target is min(expected, max_batch), clamped to >= 1.
  void SetExpected(int n) { expected_.store(n, std::memory_order_relaxed); }

 private:
  struct Pending {
    const query::Query* query = nullptr;
    const std::vector<const query::PlanNode*>* plans = nullptr;
    core::EvalMemo* memo = nullptr;
    std::vector<query::NodeStats> result;
    bool done = false;
  };

  /// Steals the parked set and evaluates it. Called with `lk` held; drops
  /// the lock around the model call and reacquires it to settle results.
  void FlushLocked(std::unique_lock<std::mutex>& lk);

  size_t TargetLocked() const;

  const core::QpSeeker* model_;
  const BatchRendezvousOptions options_;
  std::atomic<int> expected_{1};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending*> waiting_;
  bool flushing_ = false;
  obs::OwnedHistogram* const batch_size_;
  obs::OwnedHistogram* const batch_plans_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_BATCH_RENDEZVOUS_H_
