// Copyright 2026 The QPSeeker Authors

#include "serve/batch_rendezvous.h"

#include <algorithm>
#include <chrono>

#include "obs/window.h"
#include "util/fault.h"
#include "util/trace.h"

namespace qps {
namespace serve {

BatchRendezvous::Stats BatchRendezvous::Stats::Of(
    const obs::OwnedHistogram& batch_size,
    const obs::OwnedHistogram& batch_plans) {
  Stats out;
  out.flushes = batch_size.count();
  out.fused_queries = static_cast<int64_t>(batch_size.sum());
  out.max_fused = static_cast<int64_t>(batch_size.max());
  out.fused_plans = static_cast<int64_t>(batch_plans.sum());
  return out;
}

BatchRendezvous::BatchRendezvous(const core::QpSeeker* model,
                                 BatchRendezvousOptions options,
                                 obs::OwnedHistogram* batch_size,
                                 obs::OwnedHistogram* batch_plans)
    : model_(model),
      options_(options),
      batch_size_(batch_size),
      batch_plans_(batch_plans) {}

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
    requests.push_back(core::PlanEvalRequest{p->query, *p->plans, p->memo});
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
  // Counted before any result is handed out, so a request that has its
  // answer always finds its flush in the counters.
  batch_plans_->Record(static_cast<double>(total_plans));
  batch_size_->Record(static_cast<double>(batch.size()));

  lk.lock();
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->result = std::move(fused[i]);
    batch[i]->done = true;
  }
  flushing_ = false;
  cv_.notify_all();
}

std::vector<query::NodeStats> BatchRendezvous::Evaluate(
    const query::Query& q, const std::vector<const query::PlanNode*>& plans,
    core::EvalMemo* memo) {
  Pending pending;
  pending.query = &q;
  pending.plans = &plans;
  pending.memo = memo;

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
