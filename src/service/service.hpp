// The serving front door (paper Sec. 4.3's deployment story as an API):
// "program once, solve many" behind a long-lived, thread-safe session.
//
// A request is just {problem instance, solver config, batch parameters}.
// The service lowers the instance through the COP registry
// (cop::any_instance), looks the resulting (form, config) up in an
// LRU-bounded cache of *programmed chip prototypes* keyed by the
// fabrication content hash — the form plus the config's fab/device fields
// only, so a resubmission that changes just the solve-time schedule (SA
// iterations, tempering ladder, ...) is a cache hit on the same chip —
// and runs the batch protocol on the (possibly cached) chip:
//
//   * a cache hit skips fabrication entirely — the cached prototype is
//     cloned per run, which is bit-identical to refabricating, so replies
//     are indistinguishable from a cold solve;
//   * every request runs through runtime::solve_batch, whose task tree on
//     the shared runtime::ExecutorPool follows the request's
//     HyCimConfig::search: restarts for single-walk SA, runs × replica
//     segments for replica exchange, runs × islands × segments for an
//     archipelago — bit-identical for any thread count;
//   * solve() is synchronous; submit() queues the same computation and
//     returns a std::future — the queue is drained by at most
//     ServiceConfig::workers concurrent *drainer jobs posted to the same
//     pool* (no dedicated service threads), so async serving adds zero
//     std::thread constructions in steady state.  Replies are
//     bit-identical to solve() for the same request, because every run's
//     randomness is a pure function of (batch seed, run index) regardless
//     of which thread executes it (the runtime::run_batch determinism
//     contract);
//   * oversubscription control: each request's effective batch.threads is
//     clamped to its fair share of core::thread_budget() given the number
//     of requests in flight (see effective_batch_threads), and the pool
//     itself bounds physical threads — K concurrent submissions can no
//     longer multiply into K × machine width.
//
// Observability: cache_stats() reports hits / misses / evictions;
// stats() adds queue depth, in-flight and completed submissions, the
// robustness counters (rejected / shed / deadline misses / retries /
// faults / degradations), and the shared pool's scheduler counters; each
// reply carries its cache_hit flag, SolveStatus, attempt count, and the
// effective thread width it ran at.
//
// Robustness model (every reply carries a core::SolveStatus):
//   * deadlines + cancellation — a request may carry a timeout and/or a
//     caller CancelToken; both chain with the service's abort token and
//     are polled at the solver's segment/migration checkpoints, so a
//     fired token yields the any-time best-so-far as a *partial* reply
//     (status deadline_exceeded / cancelled), while an already-expired
//     deadline fast-fails before any chip is fabricated;
//   * admission control — max_queue_depth bounds the submit queue with a
//     reject-new or shed-lowest-priority overflow policy, and requests
//     carry priorities (higher drains first, FIFO within a priority);
//   * shutdown(drain|abort) — drain completes every queued submission;
//     abort completes queued promises as cancelled and fires the abort
//     token so in-flight solves return partial results.  submit() after
//     shutdown returns a rejected Reply; it never throws for runtime
//     conditions (degenerate requests still throw at the call site);
//   * fault recovery — transient faults (the util::FaultInjector seams:
//     fabrication, replica segments, migration barriers) are retried with
//     capped exponential backoff and deterministic jitter; exhausted
//     budgets reply status=faulted.  A hardware-path chip that fails
//     health validation is refabricated on the software-filter path and
//     served with status=degraded instead of failing the request.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cop/any_instance.hpp"
#include "core/constrained_form.hpp"
#include "core/hycim_solver.hpp"
#include "core/solve_status.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/cancel.hpp"
#include "runtime/executor_pool.hpp"
#include "service/request_hash.hpp"

namespace hycim::service {

/// What submit() does when the bounded queue is full.
enum class OverflowPolicy : std::uint8_t {
  /// The incoming request is rejected (status kRejected, ready future).
  kRejectNew = 0,
  /// The lowest-priority queued request (newest within that priority) is
  /// completed with a rejected Reply and the incoming one takes its slot
  /// — iff the incoming priority is strictly higher; otherwise the
  /// incoming request is rejected as under kRejectNew.
  kShedLowestPriority = 1,
};

/// How shutdown() disposes of pending work.
enum class ShutdownMode : std::uint8_t {
  /// Stop admitting, then complete every queued submission normally.
  kDrain = 0,
  /// Stop admitting, complete queued promises with status kCancelled
  /// without running them, and fire the service abort token so in-flight
  /// solves stop at their next checkpoint with partial results.
  kAbort = 1,
};

/// Session-level configuration.
struct ServiceConfig {
  /// Maximum number of programmed chip prototypes kept alive (LRU).  A
  /// 100-item QKP prototype is ~1 MB of fabricated device state, so the
  /// default bounds the cache to tens of MB.  0 disables caching (every
  /// request fabricates, nothing is retained).
  std::size_t chip_cache_capacity = 16;
  /// Maximum *concurrent* async submissions: the submission queue is
  /// drained by up to this many drainer jobs posted to the shared
  /// runtime::ExecutorPool (no dedicated threads).  Each drainer runs one
  /// request at a time; the request's batch fans out on the same pool
  /// below it, within the shared thread budget.  0 is treated as 1.
  unsigned workers = 2;
  /// Trace-memory guard: when a request's estimated exchange + migration
  /// trace size (see estimated_trace_events) exceeds this many events, the
  /// service flips the strategy's record_trace off before solving — the
  /// reply's exchange/migration/resample traces come back empty while
  /// every counter stays exact (the TemperingParams::record_trace
  /// contract), so a long tempered or archipelago submission cannot grow
  /// its reply without bound.  0 disables the guard (traces always honor
  /// the request).
  std::size_t max_trace_events = 1u << 16;
  /// Admission control: maximum queued (accepted but not yet started)
  /// async submissions.  0 = unbounded (no admission control).
  std::size_t max_queue_depth = 0;
  /// What to do with new submissions when the queue is full.
  OverflowPolicy overflow_policy = OverflowPolicy::kRejectNew;
  /// Transient-fault retry budget per request: a FaultError from a
  /// fabrication / replica-segment / migration-barrier seam is retried up
  /// to this many times before the reply degrades to status kFaulted.
  unsigned max_retries = 2;
  /// Retry backoff: attempt k sleeps ~base × 2^(k−1), capped, with
  /// deterministic jitter in [1/2, 1] of that drawn from a stream forked
  /// off the request's batch seed — so a replayed request backs off
  /// identically.  base 0 disables sleeping (tests).
  std::chrono::nanoseconds retry_backoff_base{1'000'000};  // 1 ms
  std::chrono::nanoseconds retry_backoff_cap{64'000'000};  // 64 ms
  /// Hardware chip health validation: when > 0, a hardware-filter chip is
  /// probed before serving by a short check_incremental solve of this
  /// many iterations on a clone (divergence between the incremental and
  /// full evaluation paths fails the probe).  The injected kChipHealth
  /// seam is consulted regardless.  A failed probe degrades the request
  /// to the software-filter path with status kDegraded.  0 disables the
  /// real probe (the default: it costs a mini-solve per request).
  std::size_t chip_health_iterations = 0;
};

/// One solve request: the uniform front-door shape for every COP.
struct Request {
  cop::AnyInstance instance;
  core::HyCimConfig config{};
  runtime::BatchParams batch{};
  /// Optional override of the registry's feasible-x0 generator — e.g. the
  /// fig10 Monte-Carlo protocol anneals every restart from one fixed
  /// initial configuration.  Must return feasible form-sized vectors and
  /// depend only on the rng argument (the determinism contract).
  runtime::InitFn init{};
  /// Scheduling priority: higher-priority submissions drain first (FIFO
  /// within a priority), and under kShedLowestPriority overflow a higher
  /// priority can displace a queued lower one.
  int priority = 0;
  /// End-to-end deadline measured from the submit()/solve() call (queue
  /// wait included).  0 = none.  Negative = already expired: the reply
  /// fast-fails with status kDeadlineExceeded before any chip is
  /// fabricated (no cache pollution).
  std::chrono::nanoseconds timeout{0};
  /// Caller-held cancellation, chained with the deadline and the service
  /// abort token.  Cancelling mid-solve yields a partial any-time reply.
  runtime::CancelToken cancel{};
};

/// One reply: QUBO-level batch statistics plus the problem-level score of
/// the best configuration.
struct Reply {
  runtime::BatchResult batch;
  cop::ProblemReport problem;
  bool cache_hit = false;     ///< served from a cached programmed chip
  std::uint64_t chip_key = 0; ///< low word of the fabrication key (debugging)
  /// The task-tree width the batch actually ran at: the request's resolved
  /// batch.threads clamped to its fair share of the thread budget given
  /// the in-flight submission count (see effective_batch_threads).  Purely
  /// observational — results never depend on it.
  unsigned effective_threads = 0;
  /// How this request ended (severity-max over its lifecycle): kOk, or
  /// kDegraded (hardware→software fallback), kDeadlineExceeded /
  /// kCancelled (partial any-time results — or no results when it never
  /// started), kFaulted (transient-fault retry budget exhausted),
  /// kRejected (admission control / shutdown; never ran).
  core::SolveStatus status = core::SolveStatus::kOk;
  /// Human-readable detail for non-kOk statuses (e.g. the fault message).
  std::string message;
  /// Solve attempts consumed: 1 for a clean run, 1 + retries under
  /// transient faults, 0 when the request never started (rejected, shed,
  /// fast-failed, or cancelled while queued).
  unsigned attempts = 0;
};

/// Cache observability counters (monotonic over the service lifetime,
/// except `entries` which is the current population).
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

/// Full service observability: the chip cache, the async submission
/// pipeline, and the shared executor pool's scheduler counters.
struct ServiceStats {
  CacheStats cache;
  std::size_t queue_depth = 0;  ///< async submissions not yet started
  std::size_t in_flight = 0;    ///< requests currently executing (sync+async)
  std::size_t submissions = 0;  ///< submit() calls accepted (monotonic)
  std::size_t drained = 0;      ///< async submissions completed (monotonic)
  std::size_t rejected = 0;     ///< submissions refused (shutdown / overflow)
  std::size_t shed = 0;         ///< queued requests displaced by admission
  std::size_t cancelled = 0;    ///< replies completed with status kCancelled
  std::size_t deadline_misses = 0;  ///< replies with status kDeadlineExceeded
  std::size_t fast_fails = 0;   ///< deadline misses that skipped fabrication
  std::size_t retries = 0;      ///< transient-fault retry attempts performed
  std::size_t faults = 0;       ///< injected/observed FaultErrors (incl. retried)
  std::size_t degraded = 0;     ///< hardware→software degradations served
  runtime::PoolStats pool;      ///< the shared ExecutorPool's counters
                                ///< (incl. suppressed_exceptions)
};

/// The fair-share clamp applied to every request: the width a batch may
/// use when `in_flight` requests (including itself) share `budget`
/// schedulable threads.  min(resolved, max(1, budget / in_flight)); a
/// single request keeps its full resolved width, two concurrent requests
/// split the machine, and the floor of 1 keeps heavy oversubscription
/// merely serial, never starved.  Pure — exposed for unit tests.
unsigned effective_batch_threads(unsigned resolved, unsigned budget,
                                 std::size_t in_flight);

/// Upper bound on the trace events a request would record with tracing
/// on: anneal::trace_events per run, times `restarts`.  `config.search`
/// must be in domain (the service validates it before asking).  Pure —
/// exposed for unit tests; the service compares it against
/// ServiceConfig::max_trace_events.
std::size_t estimated_trace_events(const core::HyCimConfig& config,
                                   std::size_t restarts);

/// A long-lived solver session.  All public methods are thread-safe; one
/// Service instance is meant to be shared by every caller in the process.
class Service {
 public:
  explicit Service(const ServiceConfig& config = {});
  /// Drains the async queue (pending futures still complete) before
  /// returning; no threads to join — drainers run on the shared pool.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Solves synchronously: lower → cached/ fabricated chip → batch →
  /// problem-level score.  Throws std::invalid_argument on degenerate
  /// requests (zero restarts, out-of-domain search parameters, empty
  /// instances).
  Reply solve(const Request& request);

  /// Queues the request for the drainer pool and returns its future.  The
  /// eventual Reply is bit-identical to solve(request) called at any time,
  /// on any thread — only the cache_hit and effective_threads fields
  /// depend on scheduling.  Never throws for runtime conditions: after
  /// shutdown or under admission-control overflow the returned future is
  /// already resolved with a kRejected Reply.  Degenerate requests (zero
  /// restarts, out-of-domain search parameters) still throw
  /// std::invalid_argument at the call site.
  std::future<Reply> submit(Request request);

  /// Stops admitting new submissions and disposes of pending work
  /// (kDrain: run everything queued; kAbort: complete queued promises as
  /// cancelled and stop in-flight solves at their next checkpoint), then
  /// waits for every drainer to retire.  Idempotent; the destructor calls
  /// shutdown(kDrain).  After shutdown(kAbort), synchronous solve() calls
  /// also return kCancelled replies — the abort token stays fired.
  void shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Test/bench hook: while paused, accepted submissions stay queued (no
  /// drainer is spawned), making queue states deterministic for admission
  /// and shutdown tests.  Unpausing spawns drainers for any backlog.
  void set_drain_paused(bool paused);

  /// The raw-form entry for custom problems that are not (yet) a registry
  /// COP: same chip cache, same batch protocol; the reply's problem report
  /// is the generic QUBO view (energy, exact feasibility).
  Reply solve_form(const core::ConstrainedQuboForm& form,
                   const core::HyCimConfig& config,
                   const runtime::InitFn& init,
                   const runtime::BatchParams& batch);

  /// Cache counters at this instant.
  CacheStats cache_stats() const;

  /// Cache + scheduler observability at this instant.
  ServiceStats stats() const;

  /// Drops every cached prototype (counters keep accumulating).
  void clear_cache();

 private:
  struct CacheEntry {
    ChipKey key;
    std::shared_ptr<const core::HyCimSolver> chip;
  };

  /// One queued async submission: the request, its promise, and its
  /// effective cancel token (deadline anchored at submit time, so queue
  /// wait counts against the timeout).
  struct Queued {
    Request request;
    std::promise<Reply> promise;
    int priority = 0;
    std::uint64_t seq = 0;  ///< admission order; FIFO within a priority
    runtime::CancelToken token;
  };

  /// Builds the request's effective token: the service abort token, the
  /// caller's token, and the timeout deadline chained together.
  runtime::CancelToken request_token(const Request& request) const;

  /// Fast-fail check + retry loop around attempt_solve(); every Reply
  /// (including faulted/cancelled ones) flows out of here, never a thrown
  /// FaultError.
  Reply execute(const Request& request, const runtime::CancelToken& token);

  /// One solve attempt: lower → chip (cache / fabricate) → health check →
  /// batch → score.  Throws runtime::FaultError on injected faults.
  Reply attempt_solve(const Request& request,
                      const runtime::CancelToken& token);

  /// Health validation for a hardware-filter chip (the injected
  /// kChipHealth seam plus the optional check_incremental probe).
  bool chip_healthy(const core::HyCimSolver& chip,
                    const runtime::InitFn& init, std::uint64_t probe_seed,
                    const ChipKey& key) const;

  /// Returns the programmed chip for (form, config), from cache or by
  /// fabricating (outside the cache lock).  Sets *cache_hit accordingly.
  std::shared_ptr<const core::HyCimSolver> programmed_chip(
      const core::ConstrainedQuboForm& form, const core::HyCimConfig& config,
      const ChipKey& key, bool* cache_hit);

  /// Runs the batch with the fair-share thread clamp applied and the
  /// effective token planted in BatchParams::cancel; fills the reply's
  /// batch and effective_threads fields.
  void run_clamped(const core::HyCimSolver& prototype,
                   const runtime::InitFn& init, runtime::BatchParams batch,
                   const runtime::CancelToken& token, Reply* reply);

  /// One drainer job: pops the highest-priority queued submission (FIFO
  /// within a priority) and runs it, until the queue is empty or draining
  /// is paused, then retires itself (invariant: a non-empty queue with
  /// draining unpaused always has at least one live drainer).
  void drain();

  /// Spawns drainers for the current backlog; queue_mutex_ must be held.
  /// Returns how many drain() jobs the caller must post after unlocking.
  std::size_t reserve_drainers();

  ServiceConfig config_;

  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<ChipKey, std::list<CacheEntry>::iterator, ChipKeyHash>
      index_;
  CacheStats stats_;

  mutable std::mutex queue_mutex_;
  std::condition_variable idle_cv_;  ///< signalled when a drainer retires
  std::deque<Queued> queue_;
  std::size_t active_drainers_ = 0;  ///< guarded by queue_mutex_
  std::uint64_t next_seq_ = 0;       ///< guarded by queue_mutex_
  bool stopping_ = false;            ///< guarded by queue_mutex_
  bool drain_paused_ = false;        ///< guarded by queue_mutex_

  runtime::CancelSource abort_source_;  ///< fired by shutdown(kAbort)
  runtime::CancelToken abort_token_;    ///< cached abort_source_.token()

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> submissions_{0};
  std::atomic<std::size_t> drained_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> shed_{0};
  std::atomic<std::size_t> cancelled_{0};
  std::atomic<std::size_t> deadline_misses_{0};
  std::atomic<std::size_t> fast_fails_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> faults_{0};
  std::atomic<std::size_t> degraded_{0};
};

}  // namespace hycim::service
