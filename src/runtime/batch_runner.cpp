#include "runtime/batch_runner.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/thread_budget.hpp"
#include "runtime/executor_pool.hpp"

namespace hycim::runtime {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Moves a solve outcome into the batch record shape (run/seconds are
/// filled in by run_batch).
RunRecord record_of(core::SolveResult&& r) {
  RunRecord record;
  record.best_x = std::move(r.best_x);
  record.best_energy = r.best_energy;
  record.feasible = r.feasible;
  record.status = r.status;
  record.evaluated = r.sa.evaluated;
  record.proposed = r.sa.proposed;
  record.infeasible = r.sa.rejected_infeasible;
  record.kernel = r.kernel;
  static_cast<anneal::SearchTelemetry&>(record) = std::move(r);
  return record;
}

/// The shared body of both run_batch overloads: fans the restart indices
/// out through `executor` (the global pool at `width` when null — the
/// production path; an injected executor otherwise — the chaos-test path)
/// and aggregates in run-index order.  Exceptions from runs propagate out
/// of the executor's join (the pool captures the first one, skips the
/// remaining claims, and rethrows).
BatchResult run_batch_impl(const BatchParams& params, const RunFn& fn,
                           unsigned width, const anneal::Executor* executor) {
  if (!fn) throw std::invalid_argument("run_batch: null run function");
  if (params.restarts == 0) {
    throw std::invalid_argument(
        "run_batch: BatchParams.restarts must be > 0 (a batch of zero "
        "restarts has no result to aggregate)");
  }

  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<RunRecord> records(params.restarts);

  // Which thread executes which run is irrelevant to the result — every
  // run's randomness comes from its own forked stream and records are
  // stored by index.
  const anneal::Task task = [&](std::size_t run) {
    // A fired token skips not-yet-started runs outright: the placeholder's
    // +inf energy and empty best_x can never win the aggregation below, so
    // sibling runs that finished are untouched.
    if (params.cancel.armed()) {
      const StopReason reason = params.cancel.should_stop();
      if (reason != StopReason::kNone) {
        RunRecord skipped;
        skipped.run = run;
        skipped.status = core::status_of(reason);
        skipped.best_energy = std::numeric_limits<double>::infinity();
        records[run] = std::move(skipped);
        return;
      }
    }
    util::Rng rng = util::fork_stream(params.seed, run);
    const auto run_start = std::chrono::steady_clock::now();
    RunRecord record = fn(run, rng);
    record.run = run;
    record.seconds = seconds_since(run_start);
    records[run] = std::move(record);
  };
  if (executor != nullptr) {
    (*executor)(params.restarts, task);
  } else {
    ExecutorPool::global().run(params.restarts, task, width);
  }

  // Sequential, order-fixed aggregation: identical for any thread count.
  BatchResult result;
  result.runs = std::move(records);
  result.wall_seconds = seconds_since(batch_start);
  const bool score_success = !std::isnan(params.success_energy);
  bool have_best = false;
  // The batch kernel comes from the first run that actually solved —
  // skipped placeholders carry the default and must not speak for the
  // fabrication.
  for (const RunRecord& r : result.runs) {
    if (r.best_x.empty()) continue;
    result.kernel = r.kernel;
    break;
  }
  for (const RunRecord& r : result.runs) {
    result.status = core::merge_status(result.status, r.status);
    if (r.status != core::SolveStatus::kOk) ++result.runs_stopped;
    result.total_evaluated += r.evaluated;
    result.total_proposed += r.proposed;
    result.total_infeasible += r.infeasible;
    result.total_exchanges_proposed += r.exchanges_proposed;
    result.total_exchanges_accepted += r.exchanges_accepted;
    result.total_migrations_proposed += r.migrations_proposed;
    result.total_migrations_accepted += r.migrations_accepted;
    result.total_resamples += r.resamples;
    result.total_respaces += r.respaces;
    result.run_seconds_sum += r.seconds;
    if (score_success && r.feasible &&
        r.best_energy <= params.success_energy) {
      ++result.successes;
    }
    if (r.feasible && (!have_best || r.best_energy < result.best_energy)) {
      have_best = true;
      result.feasible = true;
      result.best_energy = r.best_energy;
      result.best_x = r.best_x;
      result.best_run = r.run;
    }
  }
  if (score_success) {
    result.success_rate = static_cast<double>(result.successes) /
                          static_cast<double>(params.restarts);
  }
  // No feasible run: report the (infeasible) lowest-energy outcome so
  // callers still see where the walk ended — mirroring the paper's
  // "trapped" D-QUBO accounting.
  if (!have_best && !result.runs.empty()) {
    const RunRecord* best = &result.runs.front();
    for (const RunRecord& r : result.runs) {
      if (r.best_energy < best->best_energy) best = &r;
    }
    result.best_energy = best->best_energy;
    result.best_x = best->best_x;
    result.best_run = best->run;
  }
  return result;
}

}  // namespace

unsigned resolve_thread_count(unsigned requested, std::size_t restarts) {
  unsigned threads = requested;
  if (threads == 0) {
    // The default tracks the machine-wide budget (explicit knob > env >
    // hardware_concurrency — see core/thread_budget.hpp), so threads=0
    // means "my fair share of the machine", not "one more full machine".
    threads = core::thread_budget();
  }
  if (restarts < threads) {
    threads = static_cast<unsigned>(restarts);
  }
  return threads == 0 ? 1 : threads;
}

BatchResult run_batch(const BatchParams& params, const RunFn& fn) {
  return run_batch_impl(params, fn,
                        resolve_thread_count(params.threads, params.restarts),
                        nullptr);
}

BatchResult run_batch(const BatchParams& params, const RunFn& fn,
                      const anneal::Executor& executor) {
  if (!executor) throw std::invalid_argument("run_batch: null executor");
  return run_batch_impl(params, fn, /*width=*/0, &executor);
}

unsigned batch_width(const BatchParams& params,
                     const anneal::SearchParams& search) {
  const std::size_t replicas = anneal::make_strategy(search)->replicas();
  return resolve_thread_count(params.threads, params.restarts * replicas);
}

BatchResult solve_batch(const core::HyCimSolver& prototype, const InitFn& init,
                        const BatchParams& params) {
  if (!init) throw std::invalid_argument("solve_batch: null init function");
  // One task tree for every strategy: the runs are top-level pool tasks,
  // and each run's islands and replica segments fan out as child tasks of
  // the same tree through the child executor, whose width 0 means "inherit
  // the tree's budget" — so the whole batch respects one cap.  Single-walk
  // SA never dispatches through it.  Scheduling is invisible to results
  // (each segment is a pure function of its forked stream), so any width
  // reproduces the serial batch bit for bit, traces included.
  const unsigned width = batch_width(params, prototype.config().search);
  const anneal::Executor fan = ExecutorPool::global().executor(0);
  return run_batch_impl(
      params,
      [&](std::size_t, util::Rng& rng) {
        // Same fabricated chip every run (fab_seed untouched), but an
        // independent comparator-noise stream per run — independent
        // repeated measurements, which is what the success-rate statistics
        // assume.  Stream order: decision-seed root, then x0, then the run
        // seed (the solve forks its per-replica streams from it).
        std::uint64_t decision_seed = rng.next_u64();
        if (decision_seed == 0) decision_seed = 1;  // 0 means "keep proto's"
        core::HyCimSolver solver(prototype, decision_seed);
        const qubo::BitVector x0 = init(rng);
        return record_of(
            solver.solve(x0, rng.next_u64(), fan, params.cancel));
      },
      width, nullptr);
}

BatchResult solve_batch(const core::ConstrainedQuboForm& form,
                        const core::HyCimConfig& config, const InitFn& init,
                        const BatchParams& params) {
  if (!init) throw std::invalid_argument("solve_batch: null init function");
  // Fabricate the chip once; every run clones it ("program once, solve
  // many") instead of re-running the O(cells) fabrication.  The clone is
  // bit-identical to a refabrication with the same fab_seed, so batch
  // results are unchanged — construction just stops dominating the wall
  // time of short anneals.
  const core::HyCimSolver prototype(form, config);
  return solve_batch(prototype, init, params);
}

}  // namespace hycim::runtime
