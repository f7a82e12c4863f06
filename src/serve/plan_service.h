// Copyright 2026 The QPSeeker Authors
//
// The concurrent planning service: N clients submit queries, the service
// plans them on a bounded worker pool and coalesces their model
// evaluations into shared batched forwards. The pipeline per request:
//
//   Submit(PlanRequest)
//     -> admission: a per-service pending counter bounds admitted-but-
//        unstarted requests at `max_queue`; a full queue sheds the request
//        (kResourceExhausted) or, when shed_to_baseline is set, degrades it
//        to an inline DP plan on the caller's thread — load never builds an
//        unbounded backlog. When the service runs on a shared (shard) pool,
//        `pool_max_queue` is a second backstop on the pool itself.
//     -> planning: the service's one core::Planner (Plan() is const and
//        thread-safe, planner_api.h) runs on every worker with the request
//        deadline and a BatchRendezvous evaluate hook the service injects
//        itself — the hook is not settable by callers, so nothing can
//        silently bypass the rendezvous. Sharing one planner means the
//        "guarded" ladder's breaker sees the tenant's whole traffic.
//     -> batching: every model evaluation from every in-flight request
//        meets in the rendezvous and rides a fused PredictPlansMulti
//        forward. Plans stay bit-identical to serial planning (see
//        batch_rendezvous.h).
//     -> deadline ladder: an expired deadline truncates the anytime search
//        and returns the best plan found so far with deadline_hit set;
//        only fail_on_deadline requests see kDeadlineExceeded.
//
// The planner, its model and its rendezvous form one immutable
// *generation*. Each planning attempt snapshots the current generation;
// SwapModel publishes a new one without waiting for anything, and
// in-flight requests finish on the generation they started with.
//
// Construction goes through PlanServiceDeps (named fields, shared model
// ownership from the start); the sharded multi-tenant layer
// (sharded_service.h) builds one such core per tenant on a shard-owned
// pool.
//
// Metrics: qps.serve.{requests,inflight,queue_depth,queue_ms,latency_ms,
// batch_size,batch_plans,deadline_misses,shed} and
// qps.serve.retries.{attempts,exhausted,success_after_retry}; services
// labelled with a tenant id additionally feed
// qps.tenant.{requests,shed,latency_ms}.<id> windowed series. Every
// counted event is one call on an owned metric (obs/window.h) that also
// moves the matching stats() field. Trace spans:
// serve.submit, serve.plan, serve.batch_flush. Fault points (util/fault.h):
// serve.submit fires on the submitting thread before admission;
// planning runs under a fault::ScopedContext carrying the tenant id, so
// chaos specs scoped with only_context hit one tenant's traffic only.

#ifndef QPS_SERVE_PLAN_SERVICE_H_
#define QPS_SERVE_PLAN_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/planner_backends.h"
#include "obs/window.h"
#include "serve/batch_rendezvous.h"
#include "serve/retry.h"
#include "util/cancel.h"

namespace qps {
namespace obs {
class AuditLog;
}  // namespace obs

namespace serve {

/// Everything a PlanService plans *with*: the backend, the model, and the
/// traditional planner. The model is shared from construction, so there is
/// no pre-/post-SwapModel ownership split inside the service.
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

  /// Tenant attribution for routing (ShardedPlanService), audit lines, and
  /// qps.tenant.* metrics. Empty = the single-tenant default.
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

  /// Set by the sharded layer when this request was admitted as a breaker
  /// recovery probe (core/health.h); callers leave it false.
  bool health_probe = false;
};

/// Per-attempt outcome hook, invoked on the planning thread after every
/// planning attempt (including each retry). `final_attempt` is true when no
/// further retry will be taken — the request resolves with this outcome.
/// Sheds and routing rejections do NOT reach this hook (load is not
/// health). The sharded layer binds this to its HealthMonitor.
using AttemptCallback =
    std::function<void(const PlanRequest&, const Status&, bool final_attempt)>;

struct PlanServiceOptions {
  /// Worker threads when the service owns its pool. 0 runs every request
  /// inline on the caller (never sheds).
  int workers = 4;

  /// Admission bound: requests beyond `max_queue` admitted-but-unstarted
  /// ones are shed instead of enqueued. This is the per-tenant quota knob
  /// in sharded serving: a hot tenant exhausts its own bound, not the
  /// shard's pool.
  size_t max_queue = 32;

  /// External worker pool (non-owning). Null = the service creates and
  /// owns a pool of `workers` threads. Sharded serving points every tenant
  /// core of a shard at the shard's pool; the destructor then quiesces
  /// (waits out scheduled tasks) instead of tearing the pool down.
  util::ThreadPool* pool = nullptr;

  /// Backstop bound on an external pool's queue (0 = none): even when a
  /// tenant is under its own quota, a shard drowning in aggregate traffic
  /// sheds. Ignored for service-owned pools, where max_queue already
  /// bounds the pool's only user.
  size_t pool_max_queue = 0;

  /// Tenant label. Non-empty: per-request accounting also feeds the
  /// qps.tenant.{requests,shed,latency_ms}.<tenant_id> windowed series,
  /// and audit records carry it.
  std::string tenant_id;

  /// Deadline applied to requests that don't carry their own (0 = none).
  double default_deadline_ms = 0.0;

  /// Shed policy: false rejects with kResourceExhausted; true degrades the
  /// request to the traditional DP planner, run inline on the submitting
  /// thread (requires a baseline planner).
  bool shed_to_baseline = false;

  /// Cross-query batching knobs (see BatchRendezvousOptions).
  int max_batch = 16;
  double flush_timeout_ms = 0.5;

  /// Optional per-request audit log (obs/audit.h). Non-owning: the caller
  /// keeps the log alive for the service's lifetime. Every terminal
  /// outcome — ok, error, shed, shed_degraded — appends one JSON line.
  obs::AuditLog* audit = nullptr;

  /// Worker-side retry policy for transient planning failures (see
  /// serve/retry.h): a retryable attempt re-plans on the same worker after
  /// a deadline-budgeted backoff. Disabled by default (max_retries == 0).
  RetryPolicy retry;

  /// Per-attempt outcome hook; see AttemptCallback. Null = no hook.
  AttemptCallback on_attempt;
};

/// Owns the planning backend and the rendezvous (and the worker pool,
/// unless deps point it at a shared one). Thread-safe: Submit may be
/// called from any number of client threads.
class PlanService {
 public:
  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;      ///< OK results delivered
    int64_t errors = 0;         ///< non-OK results (excluding rejects)
    int64_t shed = 0;           ///< admission-control rejections + degrades
    int64_t shed_degraded = 0;  ///< of `shed`, served by the inline baseline
    int64_t deadline_hits = 0;  ///< best-effort plans under an expired deadline
    int64_t retry_attempts = 0;  ///< worker-side retries taken
    int64_t retry_exhausted = 0;  ///< gave up: cap or deadline budget
    int64_t retry_successes = 0;  ///< requests that succeeded after >=1 retry
    BatchRendezvous::Stats batching;
  };

  /// Builds the `deps.planner_name` backend via core::MakePlanner. Returns
  /// kInvalidArgument for unknown backends or a shed_to_baseline config
  /// without a baseline.
  static StatusOr<std::unique_ptr<PlanService>> Create(
      PlanServiceDeps deps, PlanServiceOptions options = {});

  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  /// Submits one request. The future resolves to the PlanResult, or to
  /// kResourceExhausted when the request was shed with no baseline to
  /// degrade to. The batch-evaluate hook is injected by the service and
  /// cannot be overridden per request.
  std::future<StatusOr<core::PlanResult>> Submit(PlanRequest request);

  /// Routes the request straight down the shed path — inline baseline
  /// degrade when shed_to_baseline is configured, reject otherwise — with
  /// `reason` ("quarantined", ...) stamped on the audit record and the
  /// rejection status. The sharded layer uses this to keep a quarantined
  /// tenant's traffic off the shard pool while still serving it a plan.
  std::future<StatusOr<core::PlanResult>> SubmitDegraded(PlanRequest request,
                                                         const char* reason);

  /// Requests currently being planned (not queued).
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  /// Requests admitted but not yet started on a worker.
  size_t queue_depth() const {
    return static_cast<size_t>(pending_.load(std::memory_order_relaxed));
  }

  /// Snapshot of the service's ledger, including the flushes of every
  /// generation's rendezvous, so flushes of a generation retired by
  /// SwapModel are counted exactly once. Outcomes are read before
  /// admissions: completed + errors never exceeds submitted.
  Stats stats() const;

  /// Guard counters of the current generation's planner.
  core::GuardStats guard_stats() const;

  /// Atomically replaces the serving model under in-flight traffic: builds
  /// a new generation (planner on a fresh, closed breaker, and
  /// rendezvous) for `model` and publishes it. Requests planning at that
  /// moment finish on the generation they started with, which keeps the
  /// old model alive until its last reader drops it; attempts started
  /// after SwapModel returns plan against the new model. Never waits on
  /// in-flight work. On error (e.g. planner construction fails) the old
  /// model keeps serving. Designed as the ModelManager swap hook; safe to
  /// call concurrently with Submit.
  Status SwapModel(std::shared_ptr<const core::QpSeeker> model);

  /// Blocks until every scheduled task has finished (admitted requests
  /// resolve their futures first). With no concurrent Submits the service
  /// is idle afterwards — the sharded layer quiesces a tenant core this
  /// way before destroying it, since a shared pool cannot be drained by
  /// tearing it down.
  void Quiesce();

  const PlanServiceOptions& options() const { return options_; }

 private:
  PlanService(PlanServiceDeps deps, PlanServiceOptions options);

  struct Request;

  /// Everything one model plans with. Immutable once published; requests
  /// hold a shared_ptr to it for the length of a planning attempt.
  struct Generation {
    std::shared_ptr<const core::QpSeeker> model;
    std::unique_ptr<const core::Planner> planner;
    /// Null without a model (the "baseline" backend).
    std::unique_ptr<BatchRendezvous> rendezvous;
  };

  util::ThreadPool& active_pool() const {
    return options_.pool != nullptr ? *options_.pool : *owned_pool_;
  }

  StatusOr<std::shared_ptr<const Generation>> BuildGeneration(
      std::shared_ptr<const core::QpSeeker> model);
  std::shared_ptr<const Generation> CurrentGeneration() const;

  void RunRequest(Request& req);
  /// Terminal shed path: degrade to the inline baseline or reject, plus
  /// metrics/audit/stats bookkeeping. Runs on the submitting thread.
  /// `reason` is the machine-readable shed cause ("shed_queue_full",
  /// "shed_pool_backstop", "quarantined"), stamped on the audit record and
  /// carried in Status::reason() on rejection.
  void ShedRequest(Request& req, const char* reason);
  StatusOr<core::PlanResult> PlanShedded(const query::Query& q,
                                         const char* reason);
  void TaskStarted();
  void TaskFinished();

  PlanServiceOptions options_;

  /// Create() deps, kept for building generations in SwapModel.
  std::string planner_name_;
  const optimizer::Planner* baseline_ = nullptr;
  core::GuardedOptions gopts_;

  /// Baseline backend for the shed-degrade path, which runs inline on the
  /// submitting thread and must not depend on the model generation.
  std::unique_ptr<const core::Planner> shed_planner_;

  /// Guards generation_, the pointer only: a generation is immutable.
  /// No other lock is ever taken while holding it.
  mutable std::mutex model_mu_;
  std::shared_ptr<const Generation> generation_;  ///< guarded by model_mu_

  /// Admitted-but-unstarted requests: the admission bound and queue gauge.
  std::atomic<int64_t> pending_{0};
  std::atomic<int> inflight_{0};

  /// Scheduled-but-unfinished tasks, for Quiesce(). Counted under a mutex
  /// (not an atomic) so the cv wait is race-free.
  std::mutex outstanding_mu_;
  std::condition_variable outstanding_cv_;
  int64_t outstanding_ = 0;

  /// The service's ledger (DESIGN.md §8): one call per event moves the
  /// value stats() snapshots and feeds the qps.serve.* family (and, for a
  /// labelled service, qps.tenant.*.<tenant_id>).
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

  /// Declared last: its destructor drains queued tasks, which still touch
  /// the members above. Null when running on an external pool (the
  /// destructor quiesces instead).
  std::unique_ptr<util::ThreadPool> owned_pool_;
};

}  // namespace serve
}  // namespace qps

#endif  // QPS_SERVE_PLAN_SERVICE_H_
