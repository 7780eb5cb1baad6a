#include "service/service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/thread_budget.hpp"
#include "runtime/fault_injector.hpp"
#include "util/rng.hpp"

namespace hycim::service {

namespace {

/// Stream ids forked off a request's batch seed (see util::fork_stream):
/// retry-backoff jitter and the health-probe walk.  Distinct from every
/// batch/replica stream, so arming retries or probes never perturbs the
/// solve randomness.
constexpr std::uint64_t kBackoffStream = 0x424B4F46ULL;  // "BKOF"
constexpr std::uint64_t kHealthStream = 0x48454C54ULL;   // "HELT"

/// Rejects requests no batch can run — zero restarts, or out-of-domain
/// search parameters (replicas_of validates every kind) — before the trace
/// guard or anything else reads the search's intervals.
void validate_request(const core::HyCimConfig& config,
                      const runtime::BatchParams& batch) {
  if (batch.restarts == 0) {
    throw std::invalid_argument(
        "service::Service: batch.restarts must be > 0 — a request with no "
        "restarts has no measurements to aggregate");
  }
  anneal::replicas_of(config.search);
}

/// A reply for a request that never (or no longer) runs: empty batch, the
/// given terminal status on both the reply and its batch view.
Reply status_reply(core::SolveStatus status, std::string message) {
  Reply reply;
  reply.status = status;
  reply.batch.status = status;
  reply.message = std::move(message);
  reply.attempts = 0;
  return reply;
}

/// Capped exponential backoff for retry `attempt` (1-based) with
/// deterministic jitter in [1/2, 1] of the scaled delay.
std::chrono::nanoseconds backoff_delay(unsigned attempt,
                                       std::chrono::nanoseconds base,
                                       std::chrono::nanoseconds cap,
                                       util::Rng& rng) {
  if (base.count() <= 0) return std::chrono::nanoseconds{0};
  const unsigned shift = std::min(attempt - 1, 20u);
  std::int64_t scaled = base.count();
  if (scaled > (cap.count() >> shift)) {
    scaled = cap.count();
  } else {
    scaled <<= shift;
  }
  const std::int64_t half = scaled / 2;
  return std::chrono::nanoseconds{half + rng.uniform_int(0, scaled - half)};
}

/// The request config with its trace guard applied: past the event bound,
/// the strategy's record_trace flips off (counters stay exact — replies
/// just stop carrying the per-event history).
core::HyCimConfig bounded_config(const core::HyCimConfig& config,
                                 std::size_t restarts,
                                 std::size_t max_trace_events) {
  if (max_trace_events == 0) return config;
  if (estimated_trace_events(config, restarts) <= max_trace_events) {
    return config;
  }
  core::HyCimConfig bounded = config;
  if (auto* tempering =
          std::get_if<anneal::TemperingParams>(&bounded.search)) {
    tempering->record_trace = false;
  } else if (auto* archipelago =
                 std::get_if<anneal::ArchipelagoParams>(&bounded.search)) {
    archipelago->record_trace = false;
  }
  return bounded;
}

/// RAII in-flight counter: every executing request (sync or async) holds
/// one increment for the duration of its batch.
class InFlight {
 public:
  explicit InFlight(std::atomic<std::size_t>& counter) : counter_(counter) {
    counter_.fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlight() { counter_.fetch_sub(1, std::memory_order_relaxed); }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

 private:
  std::atomic<std::size_t>& counter_;
};

}  // namespace

unsigned effective_batch_threads(unsigned resolved, unsigned budget,
                                 std::size_t in_flight) {
  if (in_flight < 1) in_flight = 1;
  const unsigned share = std::max(
      1u, static_cast<unsigned>(budget / in_flight));
  return std::min(resolved == 0 ? 1u : resolved, share);
}

std::size_t estimated_trace_events(const core::HyCimConfig& config,
                                   std::size_t restarts) {
  return anneal::trace_events(config.search, config.sa.iterations) * restarts;
}

Service::Service(const ServiceConfig& config)
    : config_(config), abort_token_(abort_source_.token()) {
  stats_.capacity = config_.chip_cache_capacity;
}

Service::~Service() {
  // Graceful drain: pending submissions complete even during shutdown, so
  // a future obtained before ~Service never deadlocks or breaks its
  // promise.
  shutdown(ShutdownMode::kDrain);
}

std::size_t Service::reserve_drainers() {
  if (drain_paused_ || queue_.empty()) return 0;
  const std::size_t cap = config_.workers == 0 ? 1 : config_.workers;
  const std::size_t want = std::min<std::size_t>(cap, queue_.size());
  if (want <= active_drainers_) return 0;
  const std::size_t spawn = want - active_drainers_;
  active_drainers_ += spawn;
  return spawn;
}

void Service::shutdown(ShutdownMode mode) {
  std::vector<std::promise<Reply>> aborted;
  std::size_t spawn = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    if (mode == ShutdownMode::kAbort) {
      // Complete queued promises as cancelled without running them; the
      // set_value calls happen outside the lock.
      cancelled_.fetch_add(queue_.size(), std::memory_order_relaxed);
      for (Queued& item : queue_) {
        aborted.push_back(std::move(item.promise));
      }
      queue_.clear();
    } else {
      // Drain: resume paused drainers or the backlog would never empty.
      drain_paused_ = false;
      spawn = reserve_drainers();
    }
  }
  if (mode == ShutdownMode::kAbort) {
    // Fire the service abort token: in-flight solves stop at their next
    // checkpoint and reply with partial any-time results.
    abort_source_.cancel();
  }
  for (std::promise<Reply>& promise : aborted) {
    promise.set_value(status_reply(core::SolveStatus::kCancelled,
                                   "cancelled while queued: service abort"));
  }
  for (std::size_t i = 0; i < spawn; ++i) {
    runtime::ExecutorPool::global().post([this] { drain(); });
  }
  // A non-empty queue with draining unpaused always has a live drainer
  // (the submit invariant), so waiting for the drainers to retire is
  // waiting for the queue to empty.
  std::unique_lock<std::mutex> lock(queue_mutex_);
  idle_cv_.wait(lock, [this] { return active_drainers_ == 0; });
}

void Service::set_drain_paused(bool paused) {
  std::size_t spawn = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    drain_paused_ = paused;
    if (!paused) spawn = reserve_drainers();
  }
  for (std::size_t i = 0; i < spawn; ++i) {
    runtime::ExecutorPool::global().post([this] { drain(); });
  }
}

void Service::drain() {
  for (;;) {
    Queued item;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.empty() || drain_paused_) {
        // Retire: the next submit() (or unpause) posts a fresh drainer.
        --active_drainers_;
        idle_cv_.notify_all();
        return;
      }
      // Pop the highest-priority item; the deque is in admission order,
      // so the first maximum is the oldest within its priority (FIFO).
      std::size_t pick = 0;
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        if (queue_[i].priority > queue_[pick].priority) pick = i;
      }
      item = std::move(queue_[pick]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    // Counted before execution so the increment is sequenced before the
    // future's set_value: any thread that observed a reply's future ready
    // also observes its drain counted (stats() after get() is coherent).
    drained_.fetch_add(1, std::memory_order_relaxed);
    try {
      item.promise.set_value(execute(item.request, item.token));
    } catch (...) {
      // Programming errors (degenerate lowered forms, ...) land in the
      // future, exactly like the packaged_task path they replace.
      item.promise.set_exception(std::current_exception());
    }
  }
}

std::future<Reply> Service::submit(Request request) {
  // Reject degenerate requests on the submitting thread — a clear throw at
  // the call site beats a deferred broken future.
  validate_request(request.config, request.batch);
  std::promise<Reply> promise;
  std::future<Reply> future = promise.get_future();
  // The token is built here so the deadline clock starts at submission —
  // queue wait counts against the timeout.
  runtime::CancelToken token = request_token(request);
  bool spawn_drainer = false;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(status_reply(core::SolveStatus::kRejected,
                                     "rejected: service is shutting down"));
      return future;
    }
    if (config_.max_queue_depth != 0 &&
        queue_.size() >= config_.max_queue_depth) {
      // Admission control: find the shed victim — lowest priority, newest
      // within it (highest seq) — or reject the incoming request.
      std::size_t victim = queue_.size();
      if (config_.overflow_policy == OverflowPolicy::kShedLowestPriority) {
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          if (victim == queue_.size() ||
              queue_[i].priority < queue_[victim].priority ||
              (queue_[i].priority == queue_[victim].priority &&
               queue_[i].seq > queue_[victim].seq)) {
            victim = i;
          }
        }
        if (queue_[victim].priority >= request.priority) {
          victim = queue_.size();  // nothing outranked — reject the new one
        }
      }
      if (victim == queue_.size()) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        promise.set_value(status_reply(
            core::SolveStatus::kRejected,
            "rejected: submission queue is full (admission control)"));
        return future;
      }
      shed_.fetch_add(1, std::memory_order_relaxed);
      queue_[victim].promise.set_value(status_reply(
          core::SolveStatus::kRejected,
          "shed by a higher-priority submission (admission control)"));
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    Queued item;
    item.priority = request.priority;
    item.seq = next_seq_++;
    item.token = std::move(token);
    item.request = std::move(request);
    item.promise = std::move(promise);
    queue_.push_back(std::move(item));
    if (!drain_paused_) {
      const std::size_t cap = config_.workers == 0 ? 1 : config_.workers;
      if (active_drainers_ < cap) {
        ++active_drainers_;
        spawn_drainer = true;
      }
    }
  }
  submissions_.fetch_add(1, std::memory_order_relaxed);
  if (spawn_drainer) {
    // The drainer is a one-shot pool job, not a thread: async serving
    // rides the same persistent workers the batches themselves run on.
    runtime::ExecutorPool::global().post([this] { drain(); });
  }
  return future;
}

runtime::CancelToken Service::request_token(const Request& request) const {
  const bool has_deadline = request.timeout.count() != 0;
  if (!has_deadline && !request.cancel.armed()) {
    // The common case allocates nothing: the cached abort token is the
    // whole chain.
    return abort_token_;
  }
  runtime::CancelSource source({abort_token_, request.cancel});
  if (has_deadline) source.set_deadline_after(request.timeout);
  return source.token();
}

Reply Service::execute(const Request& request,
                       const runtime::CancelToken& token) {
  // Fast-fail: an already-expired deadline (or fired token) replies
  // before lowering or fabricating anything — zero cache pollution.
  {
    const runtime::StopReason reason = token.should_stop();
    if (reason != runtime::StopReason::kNone) {
      const core::SolveStatus status = core::status_of(reason);
      if (status == core::SolveStatus::kDeadlineExceeded) {
        deadline_misses_.fetch_add(1, std::memory_order_relaxed);
        fast_fails_.fetch_add(1, std::memory_order_relaxed);
        return status_reply(status,
                            "deadline expired before the solve started "
                            "(no chip fabricated)");
      }
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      return status_reply(status, "cancelled before the solve started");
    }
  }
  const unsigned max_attempts = config_.max_retries + 1;
  util::Rng backoff_rng = util::fork_stream(request.batch.seed, kBackoffStream);
  for (unsigned attempt = 1;; ++attempt) {
    try {
      Reply reply = attempt_solve(request, token);
      reply.attempts = attempt;
      if (reply.status == core::SolveStatus::kDeadlineExceeded) {
        deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      } else if (reply.status == core::SolveStatus::kCancelled) {
        cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
      return reply;
    } catch (const runtime::FaultError& fault) {
      faults_.fetch_add(1, std::memory_order_relaxed);
      if (!fault.transient() || attempt >= max_attempts) {
        Reply reply = status_reply(core::SolveStatus::kFaulted, fault.what());
        reply.attempts = attempt;
        return reply;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      const std::chrono::nanoseconds delay =
          backoff_delay(attempt, config_.retry_backoff_base,
                        config_.retry_backoff_cap, backoff_rng);
      if (delay.count() > 0) std::this_thread::sleep_for(delay);
      // The deadline may have expired while backing off.
      const runtime::StopReason reason = token.should_stop();
      if (reason != runtime::StopReason::kNone) {
        const core::SolveStatus status = core::status_of(reason);
        if (status == core::SolveStatus::kDeadlineExceeded) {
          deadline_misses_.fetch_add(1, std::memory_order_relaxed);
        } else {
          cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        Reply reply = status_reply(
            status, "stopped during fault-retry backoff; last fault: " +
                        std::string(fault.what()));
        reply.attempts = attempt;
        return reply;
      }
    }
  }
}

bool Service::chip_healthy(const core::HyCimSolver& chip,
                           const runtime::InitFn& init,
                           std::uint64_t probe_seed,
                           const ChipKey& key) const {
  if (util::fault_injector().persistent_fault(util::FaultSite::kChipHealth,
                                              key.lo)) {
    return false;
  }
  if (config_.chip_health_iterations == 0 || !init) return true;
  // Real probe: a short single-walk solve on a clone with
  // check_incremental on — the incremental evaluator, filter matchline
  // voltages, and energies are cross-checked against full recomputation
  // every step, and divergence throws std::logic_error.
  try {
    core::HyCimSolver probe(chip, 1);
    core::HyCimConfig probe_config = chip.config();
    probe_config.sa.iterations = config_.chip_health_iterations;
    probe_config.sa.record_trace = false;
    probe_config.search = anneal::SaSearch{};
    probe_config.check_incremental = true;
    probe.retarget_solve(probe_config);
    util::Rng rng = util::fork_stream(probe_seed, kHealthStream);
    const qubo::BitVector x0 = init(rng);
    probe.solve(x0, rng.next_u64());
    return true;
  } catch (const std::logic_error&) {
    return false;
  }
}

void Service::run_clamped(const core::HyCimSolver& prototype,
                          const runtime::InitFn& init,
                          runtime::BatchParams batch,
                          const runtime::CancelToken& token, Reply* reply) {
  const InFlight guard(in_flight_);
  // Plant the request's effective token where the batch runner and the
  // strategy checkpoints below it poll it.
  batch.cancel = token;
  // The width this request could use alone (its requested threads resolved
  // against its schedulable task count), clamped to its fair share of the
  // budget across in-flight requests — the shared pool already bounds
  // physical threads, this keeps one request from queueing out the others.
  batch.threads = effective_batch_threads(
      runtime::batch_width(batch, prototype.config().search),
      core::thread_budget(), in_flight_.load(std::memory_order_relaxed));
  reply->effective_threads = batch.threads;
  reply->batch = runtime::solve_batch(prototype, init, batch);
}

Reply Service::solve(const Request& request) {
  validate_request(request.config, request.batch);
  return execute(request, request_token(request));
}

Reply Service::attempt_solve(const Request& request,
                             const runtime::CancelToken& token) {
  cop::LoweredProblem lowered = cop::lower(request.instance);
  if (lowered.form.size() == 0) {
    throw std::invalid_argument(
        "service::Service: instance lowers to an empty form (no variables)");
  }
  // Cache lookup by fabrication identity only: a resubmission that changes
  // just the schedule (iterations, tempering ladder, ...) reuses the same
  // programmed chip.
  core::HyCimConfig config = request.config;
  ChipKey key = fabrication_key(lowered.form, config);

  Reply reply;
  const runtime::InitFn& init = request.init ? request.init : lowered.init;
  auto chip = programmed_chip(lowered.form, config, key, &reply.cache_hit);
  if (config.filter_mode == core::FilterMode::kHardware &&
      !chip_healthy(*chip, init, request.batch.seed, key)) {
    // Graceful degradation ladder: the hardware-filter chip failed health
    // validation — refabricate on the exact software-filter path (its own
    // fabrication key, so the cache keeps healthy and degraded chips
    // apart) and serve the request there instead of failing it.
    degraded_.fetch_add(1, std::memory_order_relaxed);
    config.filter_mode = core::FilterMode::kSoftware;
    key = fabrication_key(lowered.form, config);
    chip = programmed_chip(lowered.form, config, key, &reply.cache_hit);
    reply.status = core::SolveStatus::kDegraded;
    reply.message =
        "hardware chip failed health validation; served by the "
        "software-filter path";
  }
  // The cached prototype may have been programmed under a different
  // schedule; clone it (decision streams kept — bit-identical to the
  // proto) and retarget the solve-time knobs to this request — with the
  // trace guard applied, so oversized requests solve with record_trace
  // off.  Copy cost is O(cells) against the device simulation — noise.
  core::HyCimSolver prototype(*chip, 0);
  prototype.retarget_solve(bounded_config(
      config, request.batch.restarts, config_.max_trace_events));
  run_clamped(prototype, init, request.batch, token, &reply);
  reply.status = core::merge_status(reply.status, reply.batch.status);
  if (reply.status == core::SolveStatus::kCancelled ||
      reply.status == core::SolveStatus::kDeadlineExceeded) {
    reply.message = reply.batch.best_x.empty()
                        ? "stopped before any restart finished"
                        : "partial any-time result (" +
                              std::to_string(reply.batch.runs_stopped) +
                              " of " +
                              std::to_string(reply.batch.runs.size()) +
                              " runs stopped)";
  }
  // A fully-stopped batch has no best configuration to score.
  if (!reply.batch.best_x.empty()) {
    reply.problem = lowered.score(reply.batch.best_x);
  }
  reply.chip_key = key.lo;
  return reply;
}

Reply Service::solve_form(const core::ConstrainedQuboForm& form,
                          const core::HyCimConfig& config,
                          const runtime::InitFn& init,
                          const runtime::BatchParams& batch) {
  validate_request(config, batch);
  if (form.size() == 0) {
    throw std::invalid_argument("service::Service::solve_form: empty form");
  }
  if (!init) {
    throw std::invalid_argument(
        "service::Service::solve_form: an initial-configuration generator "
        "is required (custom forms have no registry entry to supply one)");
  }
  const ChipKey key = fabrication_key(form, config);
  Reply reply;
  const auto chip = programmed_chip(form, config, key, &reply.cache_hit);
  core::HyCimSolver prototype(*chip, 0);
  prototype.retarget_solve(
      bounded_config(config, batch.restarts, config_.max_trace_events));
  // The raw-form entry is the un-supervised path: no deadline, retry, or
  // degradation envelope — faults (when injected) propagate to the caller.
  run_clamped(prototype, init, batch, runtime::CancelToken{}, &reply);
  reply.status = reply.batch.status;
  reply.attempts = 1;
  reply.problem.kind = "form";
  reply.problem.metric = "qubo_energy";
  reply.problem.higher_is_better = false;
  reply.problem.value = reply.batch.best_energy;
  reply.problem.feasible =
      !reply.batch.best_x.empty() && form.feasible(reply.batch.best_x);
  reply.chip_key = key.lo;
  return reply;
}

std::shared_ptr<const core::HyCimSolver> Service::programmed_chip(
    const core::ConstrainedQuboForm& form, const core::HyCimConfig& config,
    const ChipKey& key, bool* cache_hit) {
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      *cache_hit = true;
      return lru_.front().chip;
    }
    ++stats_.misses;
  }
  // Fabricate outside the lock — it is the expensive O(cells) step the
  // cache exists to amortize, and must not serialize unrelated requests.
  // Two threads missing the same key fabricate bit-identical chips (the
  // key covers every fabrication input), so whichever insert wins below is
  // interchangeable with the other's.  The fault seam sits here: cache
  // hits never fabricate, so they can never fault.
  util::fault_injector().maybe_fault(util::FaultSite::kFabrication, key.lo,
                                     key.hi);
  auto chip = std::make_shared<const core::HyCimSolver>(form, config);
  *cache_hit = false;
  if (config_.chip_cache_capacity == 0) return chip;

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Raced with another miss on the same key: adopt the cached twin.
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().chip;
  }
  lru_.push_front(CacheEntry{key, chip});
  index_[key] = lru_.begin();
  if (lru_.size() > config_.chip_cache_capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.entries = lru_.size();
  return chip;
}

CacheStats Service::cache_stats() const {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheStats out = stats_;
  out.entries = lru_.size();
  out.capacity = config_.chip_cache_capacity;
  return out;
}

ServiceStats Service::stats() const {
  ServiceStats out;
  out.cache = cache_stats();
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    out.queue_depth = queue_.size();
  }
  out.in_flight = in_flight_.load(std::memory_order_relaxed);
  out.submissions = submissions_.load(std::memory_order_relaxed);
  out.drained = drained_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.cancelled = cancelled_.load(std::memory_order_relaxed);
  out.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  out.fast_fails = fast_fails_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.faults = faults_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.pool = runtime::ExecutorPool::global().stats();
  return out;
}

void Service::clear_cache() {
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  lru_.clear();
  index_.clear();
  stats_.entries = 0;
}

}  // namespace hycim::service
