// One persistent, machine-wide executor.
//
// Before this pool, every scheduling layer owned its own threads: each
// run_batch() call spawned and joined a vector of std::threads, each
// tempered batch built a fresh per-batch replica pool, and
// service::Service nested dedicated worker threads *above* both — so K
// concurrent submissions × BatchParams::threads could oversubscribe the
// machine K-fold, while a tempered batch left every core beyond its
// replica count idle.  ExecutorPool replaces all three with one lazily
// started pool of core::thread_budget() − 1 workers plus the calling
// thread:
//
//   * one list of open task groups, oldest first, under one mutex: run()
//     publishes its group once and wakes the parked workers with one
//     broadcast; an idle worker runs a posted job first, otherwise it
//     joins the oldest group that still has an unclaimed index, a free
//     participant slot and a free slot in its tree's budget, so top-level
//     batches spread before their children;
//   * caller participation: run() executes tasks on the calling thread
//     too, so a width-1 or single-task dispatch touches no lock and
//     spawns nothing, and a blocked fork-join can never deadlock waiting
//     for its own worker;
//   * two-level task trees: a task may itself call run() — the nested
//     group joins the *ambient budget* of its batch, so a tempered batch
//     of R-replica runs exposes runs×R-way parallelism while the whole
//     tree still respects one width cap (BatchParams::threads budgets the
//     tree, not one level);
//   * idle parking: workers with nothing claimable park on one condition
//     variable; a publish wakes them all, a post() wakes one, and a
//     worker that leaves a group rescans itself instead of waking others;
//   * observability: dispatch/steal/task/park counters, queue depth, and
//     worker busy-time utilization (PoolStats), surfaced through
//     service::Service::stats() and the sched bench.
//
// Determinism contract: the pool decides only *where and when* a task
// index runs, never what it computes.  Every task submitted through the
// engine is a pure function of its index (run index, replica index) with
// order-fixed sequential aggregation after the join, so results are
// bit-identical at any budget, any width, and under adversarial
// schedulers — only wall clock changes.  (Proven by the chaos-executor
// and 1/2/max-thread identity tests.)
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "anneal/strategy.hpp"

namespace hycim::runtime {

/// Scheduler observability counters.  Monotonic over the pool lifetime
/// except `queue_depth` (instantaneous) and the derived utilization.
struct PoolStats {
  unsigned budget = 0;           ///< resolved thread budget (workers + caller)
  unsigned threads_spawned = 0;  ///< worker threads ever constructed
  unsigned workers_alive = 0;    ///< workers currently joinable
  std::size_t dispatches = 0;    ///< run() calls published to the open list
  std::size_t inline_runs = 0;   ///< run() calls satisfied serially inline
  std::size_t tasks_executed = 0;  ///< individual task indices completed
  std::size_t steals = 0;  ///< task indices run by a helper worker
  std::size_t parks = 0;   ///< worker idle-park events
  std::size_t posted = 0;  ///< one-shot jobs accepted via post()
  /// Secondary task exceptions dropped by the first-exception protocol: a
  /// group rethrows only the first failure at its join, so a second task
  /// failing in the same (already-cancelled) group would otherwise vanish
  /// without a trace.  A nonzero delta across a solve means a real error
  /// was masked by the one that got reported.
  std::size_t suppressed_exceptions = 0;
  std::size_t queue_depth = 0;  ///< open groups with unclaimed indices
  double busy_seconds = 0.0;    ///< Σ worker time spent inside tasks
  double up_seconds = 0.0;      ///< wall clock since the first worker spawn
  double utilization = 0.0;     ///< busy / (workers_alive × up); 0 when cold
};

/// The persistent pool.  All public methods are thread-safe.  One
/// process-wide instance (global()) serves every scheduler; tests may
/// construct private pools with explicit budgets.
class ExecutorPool {
 public:
  /// `budget` caps total schedulable threads (workers + one participating
  /// caller); 0 tracks core::thread_budget() dynamically, re-read at every
  /// dispatch so raising the knob grows the pool lazily.
  explicit ExecutorPool(unsigned budget = 0);
  /// Joins the workers.  No run()/post() may be in flight.
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  /// The process-wide pool, started lazily on first parallel dispatch.
  static ExecutorPool& global();

  /// Fork-join: executes tasks 0..count-1, each exactly once, and returns
  /// after all have completed; the first task exception is rethrown after
  /// the join (remaining tasks are skipped).  The calling thread
  /// participates, so count == 1 or an effective width of 1 runs inline
  /// with no lock and no thread spawns.
  ///
  /// `width` caps how many threads execute this group concurrently
  /// (0 = the pool budget).  Called from inside a task of this pool, the
  /// group joins the ambient batch budget: the whole task tree — e.g. a
  /// tempered batch's runs and their replica segments — shares one
  /// concurrency cap, which is what keeps K concurrent batches from
  /// multiplying into oversubscription.  A nested width only narrows
  /// further (min with the ambient cap); it never widens the tree.  A
  /// call from a task of another pool opens a new tree here.
  void run(std::size_t count, const anneal::Task& task, unsigned width = 0);

  /// Fire-and-forget one-shot job on a pool worker (the service's async
  /// submission drainers).  Keeps at least one worker alive even at
  /// budget 1 so posted work always makes progress.
  void post(std::function<void()> job);

  /// The anneal::Executor view of run() with the given width cap — what
  /// runtime::solve_batch hands every run's search strategy.
  anneal::Executor executor(unsigned width = 0);

  /// The resolved thread budget at this instant.
  unsigned budget() const;

  /// Scheduler counters at this instant.
  PoolStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hycim::runtime
