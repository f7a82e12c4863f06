// Copyright 2026 The QPSeeker Authors
//
// The per-tenant planning core of sharded serving (sharded_service.h): one
// tenant's planner, admission quota, retry policy and BatchRendezvous, run
// on its shard's pool. Only ShardedPlanService builds and drives cores;
// callers reach one through ShardedPlanService::Submit.
//
// Every request walks one state machine, in one place (plan_service.cc):
//
//   admit -> plan -> settle: ok | retry | degrade | fail
//
//   admit   the tenant breaker (core::HealthMonitor) first: quarantined
//           traffic degrades to the DP planner (shed_to_baseline) or is
//           rejected kUnavailable, reason "quarantined". Then the
//           serve.submit fault point, then the quota: at most `max_queue`
//           admitted-but-unstarted requests, and `pool_max_queue` as a
//           backstop on the shared shard pool. A full queue degrades
//           (shed_to_baseline) or rejects kResourceExhausted. The first
//           admission runs on the submitting thread, so a shed or a
//           quarantine rejection with no retry left resolves before
//           Submit returns.
//   plan    on a pool worker: the generation's one core::Planner (Plan()
//           is const and thread-safe) with the request deadline and the
//           rendezvous evaluate hook the core injects itself. Every
//           model evaluation of every in-flight request rides a fused
//           PredictPlansMulti forward; plans stay a function of (query,
//           seed) (batch_rendezvous.h). An expired deadline returns the
//           best plan so far with deadline_hit set; only fail_on_deadline
//           requests see kDeadlineExceeded.
//   settle  a transient failure (RetryPolicy::ShouldRetry) whose backoff
//           fits the request deadline is retried: the stage that failed
//           is re-enqueued with ThreadPool::ScheduleAfter after
//           RetryPolicy::BackoffMs(attempt, seed), and a retried plan
//           runs under what is left of the deadline since Submit. No
//           thread sleeps, and the backoff holds no worker. Anything else
//           resolves the future exactly once, with one ledger entry and
//           one audit line.
//
// What the breaker sees: every planning attempt (plus the shard_<i>
// shadow key), and admission failures with reason "fault_injected". Never
// sheds, quarantine rejections or cancellations. A probe admission is
// settled by its request's final planning outcome, or abandoned if the
// request never planned.
//
// Every stage runs under a fault::ScopedContext carrying the tenant id,
// including a retry a pool worker starts from the delayed queue, so chaos
// specs scoped with only_context hit one tenant's traffic only.
//
// The planner, its model and its rendezvous form one immutable
// *generation*. Each planning attempt snapshots the current generation;
// SwapModel publishes a new one without waiting for anything, and
// in-flight requests finish on the generation they started with.
//
// Metrics: qps.serve.{requests,inflight,queue_depth,queue_ms,latency_ms,
// batch_size,batch_plans,deadline_misses,shed} and
// qps.serve.retries.{attempts,exhausted,success_after_retry}, plus the
// tenant-labelled qps.tenant.{requests,shed,latency_ms}.<id> windowed
// series. Every counted event is one call on an owned metric
// (obs/window.h) that also moves the matching stats() field. Trace spans:
// serve.submit, serve.plan, serve.batch_flush.

#ifndef QPS_SERVE_PLAN_SERVICE_H_
#define QPS_SERVE_PLAN_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/planner_backends.h"
#include "obs/window.h"
#include "serve/batch_rendezvous.h"
#include "serve/retry.h"
#include "util/cancel.h"
#include "util/threadpool.h"

namespace qps {
namespace core {
class HealthMonitor;
}  // namespace core
namespace serve {

struct ShardedPlanServiceOptions;

/// Everything a tenant plans *with*: the backend, the model, and the
/// traditional planner. The model is shared from construction, so there is
/// no pre-/post-SwapModel ownership split inside the core.
struct PlanServiceDeps {
  /// Backend built via core::MakePlanner: "baseline", "neural", or
  /// "guarded".
  std::string planner_name = "baseline";

  /// The serving model. May be null only for the "baseline" backend (no
  /// rendezvous is created without a model). Callers owning the model
  /// elsewhere can pass a non-owning alias:
  /// std::shared_ptr<const core::QpSeeker>(std::shared_ptr<void>(), &m).
  std::shared_ptr<const core::QpSeeker> model;

  /// Traditional DP planner; required by every backend except "neural",
  /// and by shed_to_baseline. Non-owning.
  const optimizer::Planner* baseline = nullptr;

  /// Routing / MCTS / guard-rail configuration (per-backend subset used).
  core::GuardedOptions guard_options;
};

/// One planning request: the value type Submit consumes. Callers set what
/// they own (query, tenant, deadline, seed); the service owns the evaluate
/// hook, the rendezvous, and the worker placement.
struct PlanRequest {
  query::Query query;

  /// The tenant whose core plans the request: ShardedPlanService::Submit
  /// routes on it. Required; an empty or unknown id resolves kNotFound.
  std::string tenant_id;

  /// Planning deadline in ms (0 = the service default).
  double deadline_ms = 0.0;

  /// When true a blown deadline returns kDeadlineExceeded instead of the
  /// best-effort plan.
  bool fail_on_deadline = false;

  /// Pins per-request MCTS randomness (0 = backend seed); plans become a
  /// function of (query, seed) alone, independent of scheduling.
  uint64_t seed = 0;

  /// Cooperative cancellation: the caller keeps a reference and calls
  /// Cancel(); planning observes it at rollout/step/DP boundaries and the
  /// request resolves kAborted (reason "cancelled") promptly. Null = not
  /// cancellable. When fail_on_deadline is set and no token is supplied,
  /// the service arms one internally so a blown deadline aborts the search
  /// instead of letting it run to its budget.
  std::shared_ptr<util::CancelToken> cancel;
};

/// Per-tenant admission quota. The point of the quota is isolation: a hot
/// tenant exhausts *its* bound and sheds (or degrades), while the shard's
/// pool keeps serving everyone else.
struct TenantQuota {
  /// Max admitted-but-unstarted requests for this tenant; requests beyond
  /// it are shed instead of enqueued.
  size_t max_pending = 16;

  /// Shed policy: false rejects with kResourceExhausted (kUnavailable when
  /// quarantined); true degrades to an inline DP plan, never retried
  /// (requires deps.baseline).
  bool shed_to_baseline = false;
};

/// Everything needed to serve one tenant: identity, planning deps (model,
/// backend, baseline, guard config), and quota. The database binding is
/// implicit in the deps: the model, baseline planner, and guard options
/// are all constructed over the tenant's database.
struct TenantSpec {
  std::string tenant_id;
  PlanServiceDeps deps;
  TenantQuota quota;
};

/// One tenant's core. Built and driven only by ShardedPlanService; the
/// public surface is read-only (ShardedPlanService::Tenant hands out const
/// cores).
class PlanService {
 public:
  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;      ///< OK results delivered (excluding degrades)
    int64_t errors = 0;         ///< non-OK results (excluding sheds)
    int64_t shed = 0;           ///< resolved by the shed path: rejects + degrades
    int64_t shed_degraded = 0;  ///< of `shed`, served by the inline baseline
    int64_t deadline_hits = 0;  ///< best-effort plans under an expired deadline
    int64_t retry_attempts = 0;  ///< retries taken, from any stage
    int64_t retry_exhausted = 0;  ///< gave up: cap or deadline budget
    int64_t retry_successes = 0;  ///< requests that succeeded after >=1 retry
    BatchRendezvous::Stats batching;
  };

  /// Waits out every unresolved request (Quiesce) first.
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Requests currently being planned (not queued, not waiting to retry).
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Requests admitted but not yet started on a worker.
  size_t queue_depth() const {
    return static_cast<size_t>(pending_.load(std::memory_order_relaxed));
  }

  /// Snapshot of the core's ledger, including the flushes of every
  /// generation's rendezvous, so flushes of a generation retired by
  /// SwapModel are counted exactly once. Outcomes are read before
  /// admissions: completed + errors + shed never exceeds submitted, and
  /// equals it once the core is idle.
  Stats stats() const;

  /// Guard counters of the current generation's planner.
  core::GuardStats guard_stats() const;

  const TenantQuota& quota() const { return quota_; }
  const std::string& planner_name() const { return planner_name_; }

 private:
  friend class ShardedPlanService;

  /// Builds the tenant's `deps.planner_name` backend via core::MakePlanner
  /// on `pool`, configured by `options` (retry, deadline, batching, audit,
  /// the pool backstop) and fed to `health` under the tenant id and the
  /// shadow key "shard_<shard>". Everything passed in outlives the core.
  /// Returns kInvalidArgument for unknown backends, a missing model, or a
  /// shed_to_baseline quota without a baseline.
  static StatusOr<std::unique_ptr<PlanService>> Create(
      TenantSpec spec, const ShardedPlanServiceOptions& options,
      util::ThreadPool* pool, core::HealthMonitor* health, int shard);

  PlanService(TenantSpec spec, const ShardedPlanServiceOptions& options,
              util::ThreadPool* pool, core::HealthMonitor* health, int shard);

  /// Counts the request, runs its first admission on the calling thread,
  /// and returns its future.
  std::future<StatusOr<core::PlanResult>> Submit(PlanRequest request);

  /// Atomically replaces the serving model under in-flight traffic: builds
  /// a new generation (planner on a fresh, closed breaker, and
  /// rendezvous) for `model` and publishes it. Requests planning at that
  /// moment finish on the generation they started with, which keeps the
  /// old model alive until its last reader drops it; attempts started
  /// after SwapModel returns plan against the new model. Never waits on
  /// in-flight work. On error the old model keeps serving.
  Status SwapModel(std::shared_ptr<const core::QpSeeker> model);

  /// Blocks until every submitted request has resolved, delayed retries
  /// included. With no concurrent Submits the core is idle afterwards.
  void Quiesce();

  struct Request;
  using RequestPtr = std::shared_ptr<Request>;
  /// Where a failure came from: it decides what a retry re-enters
  /// (admission for kAdmit and kShed, planning for kPlan), whether the
  /// breaker hears of it, and how a final failure is booked.
  enum class Stage { kAdmit, kShed, kPlan };

  /// Everything one model plans with. Immutable once published; requests
  /// hold a shared_ptr to it for the length of a planning attempt.
  struct Generation {
    std::shared_ptr<const core::QpSeeker> model;
    std::unique_ptr<const core::Planner> planner;
    /// Null without a model (the "baseline" backend).
    std::unique_ptr<BatchRendezvous> rendezvous;
  };

  StatusOr<std::shared_ptr<const Generation>> BuildGeneration(
      std::shared_ptr<const core::QpSeeker> model);
  std::shared_ptr<const Generation> CurrentGeneration() const;

  /// The states of the machine. Each one ends by handing the request on
  /// (to the pool, the delayed queue, or Finish) and touches no member
  /// after that: a resolved request may let Quiesce return.
  void Admit(const RequestPtr& req);
  void Plan(const RequestPtr& req);
  void Settle(const RequestPtr& req, StatusOr<core::PlanResult> result,
              Stage stage);
  /// The one degrade path: an inline DP plan, reason stamped on it.
  void Degrade(const RequestPtr& req, const char* reason);
  /// Resolves the request: one ledger entry, one audit line, the promise.
  /// `shed_reason` is non-empty for requests the shed path resolved.
  void Finish(Request& req, StatusOr<core::PlanResult> result,
              const std::string& shed_reason);
  /// Feeds one planning outcome to the breaker.
  void RecordPlanOutcome(Request& req, const Status& outcome,
                         bool final_attempt);
  void AbandonProbe(Request& req);

  const std::string tenant_id_;
  const TenantQuota quota_;
  const ShardedPlanServiceOptions& options_;

  /// Create() deps, kept for building generations in SwapModel.
  std::string planner_name_;
  const optimizer::Planner* baseline_ = nullptr;
  core::GuardedOptions gopts_;

  /// Where the core runs and whom it reports to; all outlive the core.
  util::ThreadPool* const pool_;
  core::HealthMonitor* const health_;
  const std::string shard_key_;

  /// Baseline backend for the degrade path, which runs inline and must
  /// not depend on the model generation.
  std::unique_ptr<const core::Planner> shed_planner_;

  /// Guards generation_, the pointer only: a generation is immutable.
  /// No other lock is ever taken while holding it.
  mutable std::mutex model_mu_;
  std::shared_ptr<const Generation> generation_;  ///< guarded by model_mu_

  /// Admitted-but-unstarted requests: the admission bound and queue gauge.
  std::atomic<int64_t> pending_{0};
  std::atomic<int> inflight_{0};

  /// Submitted-but-unresolved requests, for Quiesce(). Counted under a
  /// mutex (not an atomic) so the cv wait is race-free.
  std::mutex outstanding_mu_;
  std::condition_variable outstanding_cv_;
  int64_t outstanding_ = 0;

  /// The core's ledger (DESIGN.md §8): one call per event moves the value
  /// stats() snapshots and feeds the qps.serve.* and qps.tenant.*.<id>
  /// families.
  obs::OwnedCounter submitted_;
  obs::OwnedCounter shed_;
  obs::OwnedCounter deadline_hits_;    ///< best-effort truncations
  obs::OwnedCounter deadline_errors_;  ///< kDeadlineExceeded results
  obs::OwnedCounter retry_attempts_;
  obs::OwnedCounter retry_exhausted_;
  obs::OwnedCounter retry_successes_;
  obs::OwnedHistogram queue_ms_;
  obs::OwnedHistogram latency_ms_;
  /// Shared by every generation's rendezvous.
  obs::OwnedHistogram batch_size_;
  obs::OwnedHistogram batch_plans_;
  /// Outcomes without a registry family; release adds, acquire loads, as
  /// in obs::OwnedCounter.
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> shed_degraded_{0};
  metrics::Gauge* const inflight_gauge_;
  metrics::Gauge* const queue_depth_gauge_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_PLAN_SERVICE_H_
