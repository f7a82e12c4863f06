// Copyright 2026 The QPSeeker Authors

#include "serve/batch_rendezvous.h"

#include <algorithm>
#include <chrono>

#include "util/fault.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace qps {
namespace serve {

namespace {

struct RendezvousMetrics {
  metrics::Histogram* batch_size;   ///< fused queries per flush
  metrics::Histogram* batch_plans;  ///< candidate plans per flush

  static const RendezvousMetrics& Get() {
    static const RendezvousMetrics m = [] {
      auto& reg = metrics::Registry::Global();
      return RendezvousMetrics{reg.GetHistogram("qps.serve.batch_size"),
                               reg.GetHistogram("qps.serve.batch_plans")};
    }();
    return m;
  }
};

}  // namespace

void BatchRendezvous::Counters::RecordFlush(int64_t queries, int64_t plans) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.flushes += 1;
  stats_.fused_queries += queries;
  stats_.fused_plans += plans;
  stats_.max_fused = std::max(stats_.max_fused, queries);
}

BatchRendezvous::Stats BatchRendezvous::Counters::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BatchRendezvous::BatchRendezvous(const core::QpSeeker* model,
                                 BatchRendezvousOptions options,
                                 Counters* counters)
    : model_(model), options_(options), counters_(counters) {}

size_t BatchRendezvous::TargetLocked() const {
  const int expected = expected_.load(std::memory_order_relaxed);
  const int capped = std::min(std::max(expected, 1), std::max(options_.max_batch, 1));
  return static_cast<size_t>(capped);
}

void BatchRendezvous::FlushLocked(std::unique_lock<std::mutex>& lk) {
  flushing_ = true;
  std::vector<Pending*> batch;
  batch.swap(waiting_);
  lk.unlock();

  std::vector<core::PlanEvalRequest> requests;
  requests.reserve(batch.size());
  int64_t total_plans = 0;
  for (Pending* p : batch) {
    requests.push_back(core::PlanEvalRequest{p->query, *p->plans});
    total_plans += static_cast<int64_t>(p->plans->size());
  }
  std::vector<std::vector<query::NodeStats>> fused;
  {
    QPS_TRACE_SPAN_VAR(span, "serve.batch_flush");
    span.AddAttr("queries", static_cast<int64_t>(batch.size()));
    span.AddAttr("plans", total_plans);
    // Latency-only fault point: the fused forward has no Status path (the
    // rendezvous contract is "plans come back"), so chaos specs here stall
    // the whole batch — modelling a slow model, not a broken one. The
    // stall surfaces downstream as deadline pressure on every fused
    // request.
    (void)fault::Check("serve.batch");
    fused = model_->PredictPlansMulti(requests);
  }
  RendezvousMetrics::Get().batch_size->Record(static_cast<double>(batch.size()));
  RendezvousMetrics::Get().batch_plans->Record(static_cast<double>(total_plans));
  // Counted before any result is handed out, so a request that has its
  // answer always finds its flush in the counters.
  counters_->RecordFlush(static_cast<int64_t>(batch.size()), total_plans);

  lk.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->result = std::move(fused[i]);
    batch[i]->done = true;
  }
  flushing_ = false;
  cv_.notify_all();
}

std::vector<query::NodeStats> BatchRendezvous::Evaluate(
    const query::Query& q, const std::vector<const query::PlanNode*>& plans) {
  Pending pending;
  pending.query = &q;
  pending.plans = &plans;

  std::unique_lock<std::mutex> lk(mu_);
  waiting_.push_back(&pending);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(
          static_cast<int64_t>(options_.flush_timeout_ms * 1e6));
  for (;;) {
    if (pending.done) break;
    // A leader flushes when the parked set reaches the target or its wait
    // timed out — but never while another flush is mid-flight (one flush
    // at a time, contract 1), so late arrivals coalesce. If we observe
    // !flushing_ and !done, our entry is still parked (a finished flush
    // settles every entry it stole before clearing flushing_), so the
    // flush we start below always includes ourselves.
    const bool expired = std::chrono::steady_clock::now() >= deadline;
    if (!flushing_ && (waiting_.size() >= TargetLocked() || expired)) {
      FlushLocked(lk);
      continue;
    }
    if (expired) {
      cv_.wait(lk);
    } else {
      cv_.wait_until(lk, deadline);
    }
  }
  return std::move(pending.result);
}

}  // namespace serve
}  // namespace qps
