#include "runtime/executor_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_budget.hpp"

namespace hycim::runtime {

namespace {

using Clock = std::chrono::steady_clock;

/// The shared concurrency cap of one batch's whole task tree.  The root
/// run() call owns it (on its stack: the root outlives every nested group
/// of its tree); every nested group joins it, so runs and their replica
/// segments draw slots from one counter.  `active` is guarded by the
/// owning pool's mutex once a group of the tree is published.
struct Budget {
  const ExecutorPool* owner = nullptr;
  unsigned limit = 1;
  unsigned active = 1;  ///< slots held: the root caller plus every helper
};

/// One fork-join dispatch, on its caller's stack: `count` task indices
/// claimed lock-free by up to `cap` participants, the caller included.
/// Workers touch it only between joining and leaving under the pool mutex,
/// and the caller returns only once every helper has left.
struct TaskGroup {
  const anneal::Task& task;
  const std::size_t count;
  const unsigned cap;
  Budget& budget;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  // Guarded by the pool mutex.
  unsigned participants = 1;  ///< the caller plus the helpers inside
  std::exception_ptr failure{};
  std::condition_variable left{};  ///< signalled as the last helper leaves
};

/// The ambient budget of the executing thread: set while a thread runs a
/// group's tasks, so nested run() calls join the same tree.
thread_local Budget* tl_budget = nullptr;

class ScopedAmbient {
 public:
  explicit ScopedAmbient(Budget* budget)
      : saved_(std::exchange(tl_budget, budget)) {}
  ~ScopedAmbient() { tl_budget = saved_; }
  ScopedAmbient(const ScopedAmbient&) = delete;
  ScopedAmbient& operator=(const ScopedAmbient&) = delete;

 private:
  Budget* saved_;
};

}  // namespace

struct ExecutorPool::Impl {
  explicit Impl(unsigned budget) : explicit_budget(budget) {}

  const unsigned explicit_budget;  ///< 0 = track core::thread_budget()

  // One lock guards the worker set, the posted jobs, the open groups and
  // every group's participant and budget slots.  Idle workers park on
  // `wake`; a publish wakes them all, a post wakes one.
  mutable std::mutex mutex;
  std::condition_variable wake;
  std::vector<std::thread> workers;  ///< appended, never removed
  std::deque<std::function<void()>> jobs;
  std::vector<TaskGroup*> open;  ///< published groups, oldest first
  bool stopping = false;
  Clock::time_point start_time{};  ///< first worker spawn

  // Counters (PoolStats): relaxed atomics, so the inline paths and the
  // claim loops bump them without the lock.
  std::atomic<std::size_t> dispatches{0};
  std::atomic<std::size_t> inline_runs{0};
  std::atomic<std::size_t> tasks_executed{0};
  std::atomic<std::size_t> steals{0};
  std::atomic<std::size_t> parks{0};
  std::atomic<std::size_t> posted{0};
  std::atomic<std::size_t> suppressed_exceptions{0};
  std::atomic<std::int64_t> busy_ns{0};

  unsigned resolved_budget() const {
    const unsigned budget =
        explicit_budget != 0 ? explicit_budget : core::thread_budget();
    return budget == 0 ? 1 : budget;
  }

  /// Grows the worker set to `target` threads.  Called with `mutex` held;
  /// a new worker blocks on it until the caller releases it.
  void grow(unsigned target) {
    if (workers.empty() && target > 0) start_time = Clock::now();
    while (workers.size() < target) {
      workers.emplace_back([this] { worker_main(); });
    }
  }

  void add_busy(Clock::time_point begin) {
    busy_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - begin)
                          .count(),
                      std::memory_order_relaxed);
  }

  /// Claims and executes task indices until none is left; returns how many
  /// ran.  The first exception cancels the group (remaining claims are
  /// skipped) and is rethrown by the group's caller.
  std::size_t claim_loop(TaskGroup& group) {
    const ScopedAmbient ambient(&group.budget);
    std::size_t ran = 0;
    for (;;) {
      const std::size_t index =
          group.next.fetch_add(1, std::memory_order_relaxed);
      if (index >= group.count) break;
      if (group.cancelled.load(std::memory_order_relaxed)) continue;
      try {
        group.task(index);
      } catch (...) {
        group.cancelled.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(mutex);
        // Only the first failure reaches the caller; count the ones the
        // protocol drops so they are visible in PoolStats.
        if (group.failure) {
          suppressed_exceptions.fetch_add(1, std::memory_order_relaxed);
        } else {
          group.failure = std::current_exception();
        }
      }
      ++ran;
    }
    tasks_executed.fetch_add(ran, std::memory_order_relaxed);
    return ran;
  }

  /// The oldest open group with an unclaimed index, a free participant
  /// slot and a free slot in its tree's budget.  Called with `mutex` held.
  TaskGroup* claimable() const {
    for (TaskGroup* group : open) {
      if (group->next.load(std::memory_order_relaxed) < group->count &&
          group->participants < group->cap &&
          group->budget.active < group->budget.limit) {
        return group;
      }
    }
    return nullptr;
  }

  /// Runs posted jobs first, then helps the oldest claimable group, and
  /// parks when there is neither.  Releasing a slot wakes nobody: this
  /// worker rescans and takes the slot itself if any group wants it.
  void worker_main() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      if (!jobs.empty()) {
        {
          const std::function<void()> job = std::move(jobs.front());
          jobs.pop_front();
          lock.unlock();
          const Clock::time_point begin = Clock::now();
          job();
          add_busy(begin);
        }
        tasks_executed.fetch_add(1, std::memory_order_relaxed);
        lock.lock();
      } else if (TaskGroup* group = claimable()) {
        ++group->participants;
        ++group->budget.active;
        lock.unlock();
        const Clock::time_point begin = Clock::now();
        steals.fetch_add(claim_loop(*group), std::memory_order_relaxed);
        add_busy(begin);
        lock.lock();
        --group->budget.active;
        if (--group->participants == 1) group->left.notify_one();
      } else {
        parks.fetch_add(1, std::memory_order_relaxed);
        wake.wait(lock);
      }
    }
  }
};

ExecutorPool::ExecutorPool(unsigned budget)
    : impl_(std::make_unique<Impl>(budget)) {}

ExecutorPool::~ExecutorPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->wake.notify_all();
  // The no-run()/post()-in-flight contract means the worker set cannot
  // grow while it is joined.
  for (std::thread& worker : impl_->workers) worker.join();
}

ExecutorPool& ExecutorPool::global() {
  static ExecutorPool pool(0);
  return pool;
}

unsigned ExecutorPool::budget() const { return impl_->resolved_budget(); }

void ExecutorPool::run(std::size_t count, const anneal::Task& task,
                       unsigned width) {
  if (count == 0) return;
  Impl& impl = *impl_;

  // Budget resolution: nested calls (an ambient budget of this pool) join
  // their batch's tree and may only narrow its cap; root calls open a new
  // tree, whose one slot the caller holds.
  Budget root{this};
  Budget* budget = tl_budget;
  if (budget == nullptr || budget->owner != this) {
    const unsigned pool_budget = impl.resolved_budget();
    root.limit = width == 0 ? pool_budget : std::min(width, pool_budget);
    budget = &root;
  }
  const unsigned cap = std::max(
      1u, width == 0 ? budget->limit : std::min(width, budget->limit));

  // Inline: a serial subtree runs on the caller under a width-1 ambient
  // budget, so descendants of a threads=1 batch stay serial too; a single
  // task runs under the full-width ambient budget, so its children may
  // still fan out across the tree's free slots.  No lock, no spawn.
  if (cap == 1 || count == 1) {
    Budget serial{this};
    const ScopedAmbient ambient(cap == 1 ? &serial : budget);
    impl.inline_runs.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i) {
      task(i);
      impl.tasks_executed.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }

  // Parallel fork-join: publish once, wake every parked worker, claim
  // alongside the helpers, close the group and wait for its helpers.
  TaskGroup group{task, count,
                  static_cast<unsigned>(std::min<std::size_t>(cap, count)),
                  *budget};
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    impl.grow(impl.resolved_budget() - 1);
    impl.open.push_back(&group);
  }
  impl.dispatches.fetch_add(1, std::memory_order_relaxed);
  impl.wake.notify_all();
  impl.claim_loop(group);
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.open.erase(std::find(impl.open.begin(), impl.open.end(), &group));
    group.left.wait(lock, [&] { return group.participants == 1; });
    failure = group.failure;
  }
  if (failure) std::rethrow_exception(failure);
}

void ExecutorPool::post(std::function<void()> job) {
  Impl& impl = *impl_;
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    // Posted work cannot run on the caller, so even a budget-1 pool keeps
    // one worker for it.
    impl.grow(std::max(1u, impl.resolved_budget() - 1));
    impl.jobs.push_back(std::move(job));
  }
  impl.posted.fetch_add(1, std::memory_order_relaxed);
  impl.wake.notify_one();
}

anneal::Executor ExecutorPool::executor(unsigned width) {
  return [this, width](std::size_t count, const anneal::Task& task) {
    run(count, task, width);
  };
}

PoolStats ExecutorPool::stats() const {
  const Impl& impl = *impl_;
  PoolStats out;
  out.budget = impl.resolved_budget();
  {
    const std::lock_guard<std::mutex> lock(impl.mutex);
    out.threads_spawned = static_cast<unsigned>(impl.workers.size());
    out.queue_depth = static_cast<std::size_t>(
        std::count_if(impl.open.begin(), impl.open.end(), [](TaskGroup* g) {
          return g->next.load(std::memory_order_relaxed) < g->count;
        }));
    if (!impl.workers.empty()) {
      out.up_seconds =
          std::chrono::duration<double>(Clock::now() - impl.start_time)
              .count();
    }
  }
  out.workers_alive = out.threads_spawned;
  out.dispatches = impl.dispatches.load(std::memory_order_relaxed);
  out.inline_runs = impl.inline_runs.load(std::memory_order_relaxed);
  out.tasks_executed = impl.tasks_executed.load(std::memory_order_relaxed);
  out.steals = impl.steals.load(std::memory_order_relaxed);
  out.parks = impl.parks.load(std::memory_order_relaxed);
  out.posted = impl.posted.load(std::memory_order_relaxed);
  out.suppressed_exceptions =
      impl.suppressed_exceptions.load(std::memory_order_relaxed);
  out.busy_seconds =
      static_cast<double>(impl.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  if (out.workers_alive > 0 && out.up_seconds > 0.0) {
    out.utilization = out.busy_seconds / (out.up_seconds * out.workers_alive);
  }
  return out;
}

}  // namespace hycim::runtime
