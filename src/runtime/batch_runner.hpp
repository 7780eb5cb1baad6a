// Parallel batch-restart runner — the paper's Fig. 10 / Sec. 4.3 protocol
// (N independent SA restarts, best-of-N and success-rate statistics) as a
// reusable subsystem.
//
// Determinism contract: run r draws everything from util::fork_stream(seed,
// r), a stateless splitmix64 fork, and results are aggregated in run-index
// order after all workers join.  The per-run work function must be a pure
// function of (run index, its forked rng) — under that contract the batch
// result is bit-identical for any thread count, which is what lets a
// laptop-thread sweep and a 128-core sweep reproduce each other's numbers.
//
// solve_batch() upholds the contract for the HyCiM facade by building one
// solver instance per run on the same fabricated hardware (fab_seed fixed)
// while seeding the comparator decision-noise stream from the run's forked
// rng — N independent repeated measurements on one chip, not N replays of
// the same noise and not a shared stream consumed in scheduling order.
// Construction is O(n²) against O(iterations·n²) of annealing, so the
// overhead is noise.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/constrained_form.hpp"
#include "core/hycim_solver.hpp"
#include "qubo/qubo_matrix.hpp"
#include "runtime/cancel.hpp"
#include "util/rng.hpp"

namespace hycim::runtime {

/// Batch configuration.
///
/// `threads` is the concurrency *width* of this batch's task tree on the
/// shared runtime::ExecutorPool, not a thread-spawn count: the whole tree
/// (runs and, for tempered batches, their replica segments) executes on
/// the one persistent pool, at most `threads` of them concurrently.
/// 0 resolves to core::thread_budget() (explicit knob > $HYCIM_THREAD_BUDGET
/// > hardware concurrency).  Migration note: before the pool, threads was
/// the number of std::threads spawned per call, so K concurrent batches
/// at threads=0 oversubscribed the machine K-fold; now they share the one
/// budget and threads=0 means "my fair share of the machine".
struct BatchParams {
  std::size_t restarts = 64;  ///< independent SA runs
  unsigned threads = 0;       ///< task-tree width; 0 = core::thread_budget()
  std::uint64_t seed = 1;     ///< root seed; run r uses fork_stream(seed, r)
  /// Runs with best_energy <= success_energy (and feasible) count as
  /// successes; NaN disables success accounting.
  double success_energy = std::numeric_limits<double>::quiet_NaN();
  /// Cooperative cancellation / deadline for the whole batch.  Polled
  /// before each run starts and at every solver checkpoint inside runs:
  /// when it fires, in-flight runs return their any-time best-so-far,
  /// not-yet-started runs are skipped with a placeholder record, and
  /// finished runs are untouched (bit-identical to an uncancelled batch).
  /// The default (unarmed) token costs one null check per run.
  CancelToken cancel{};
};

/// Outcome of one restart (one tempered ensemble or archipelago when the
/// config selects one — counters then aggregate over its replicas, and the
/// inherited anneal::SearchTelemetry carries the per-replica / per-island
/// observability).
struct RunRecord : anneal::SearchTelemetry {
  std::size_t run = 0;        ///< restart index
  qubo::BitVector best_x;     ///< best configuration of this run
  double best_energy = 0.0;
  bool feasible = false;
  /// kOk for a full-budget run; kCancelled / kDeadlineExceeded when the
  /// batch token stopped it — mid-run (partial any-time result) or before
  /// it started (placeholder: empty best_x, best_energy = +inf, so it can
  /// never win the batch aggregation).
  core::SolveStatus status = core::SolveStatus::kOk;
  std::size_t evaluated = 0;  ///< QUBO computations (feasible proposals)
  std::size_t proposed = 0;   ///< all generated configurations
  std::size_t infeasible = 0; ///< proposals rejected by the filters
  double seconds = 0.0;       ///< wall time of this run
  /// The per-flip kernel the solver ran (resolved at fabrication; see
  /// HyCimConfig::kernel).  kDense for non-solver runs.
  qubo::Kernel kernel = qubo::Kernel::kDense;
};

/// Aggregated best-of-N statistics.
struct BatchResult {
  qubo::BitVector best_x;     ///< best feasible configuration over all runs
  double best_energy = 0.0;
  bool feasible = false;      ///< true iff any run ended feasible
  std::size_t best_run = 0;   ///< winning run (lowest energy, ties → lowest
                              ///< index — deterministic)
  /// Severity-max merge over the per-run statuses: kOk iff every run ran
  /// its full budget; kCancelled / kDeadlineExceeded when the token fired
  /// — the batch is then a partial any-time result (finished runs intact).
  core::SolveStatus status = core::SolveStatus::kOk;
  std::size_t runs_stopped = 0;  ///< runs with status != kOk
  std::vector<RunRecord> runs;  ///< per-run records, ordered by run index
  std::size_t successes = 0;  ///< runs reaching success_energy (0 if disabled)
  double success_rate = 0.0;  ///< successes / restarts (0 if disabled)
  std::size_t total_evaluated = 0;  ///< QUBO computations across the batch
  std::size_t total_proposed = 0;
  std::size_t total_infeasible = 0;  ///< filter rejections across the batch
  std::size_t total_exchanges_proposed = 0;  ///< tempering barrier proposals
  std::size_t total_exchanges_accepted = 0;  ///< accepted ladder swaps
  std::size_t total_migrations_proposed = 0;  ///< archipelago elite offers
  std::size_t total_migrations_accepted = 0;  ///< adopted migrants
  std::size_t total_resamples = 0;  ///< stagnant islands killed and reseeded
  std::size_t total_respaces = 0;   ///< adaptive ladder respacings
  double wall_seconds = 0.0;      ///< elapsed wall time of the whole batch
  double run_seconds_sum = 0.0;   ///< Σ per-run seconds (the serial cost)
  /// The per-flip kernel of the batch's runs (all runs share one
  /// fabrication, hence one resolved kernel; kDense for raw run_batch).
  qubo::Kernel kernel = qubo::Kernel::kDense;
};

/// The task-tree width a batch with these parameters actually uses:
/// `requested` when non-zero, otherwise core::thread_budget() (never 0),
/// capped by `restarts` — the number of schedulable tasks; extra width
/// could never be claimed.
unsigned resolve_thread_count(unsigned requested, std::size_t restarts);

/// The width solve_batch runs `params` at on a chip whose config selects
/// `search`: resolve_thread_count over restarts × the strategy's replica
/// count, since every replica segment is a schedulable task too.  Throws
/// std::invalid_argument when `search` is out of domain.
unsigned batch_width(const BatchParams& params,
                     const anneal::SearchParams& search);

/// One independent restart.  Must be thread-safe and a pure function of
/// (run, rng) — see the determinism contract above.  The returned record's
/// `run` and `seconds` fields are filled in by the runner.
using RunFn = std::function<RunRecord(std::size_t run, util::Rng& rng)>;

/// Runs `params.restarts` independent restarts across the shared
/// runtime::ExecutorPool and aggregates them deterministically.
BatchResult run_batch(const BatchParams& params, const RunFn& fn);

/// Same protocol, but the restart fan executes through `executor` instead
/// of the pool (`params.threads` is ignored).  This is the scheduling seam
/// the chaos tests inject adversarial executors through: any executor that
/// runs every index exactly once and returns after all complete yields the
/// bit-identical batch, because runs are pure functions of (seed, index)
/// and aggregation is order-fixed.
BatchResult run_batch(const BatchParams& params, const RunFn& fn,
                      const anneal::Executor& executor);

/// Initial-configuration generator for solver batches.  Called once per
/// run with that run's forked rng; must return a feasible configuration of
/// form.size() bits.
using InitFn = std::function<qubo::BitVector(util::Rng&)>;

/// The batch-restart protocol on an already-programmed chip, for every
/// search strategy: each of the `params.restarts` runs clones `prototype`
/// ("program once, solve many") with its own comparator decision stream,
/// draws x0 = init(rng), and solves with a run seed taken from the same
/// stream, running whatever `prototype.config().search` selects — one
/// cooled walk, one tempered ensemble of R replicas, or one archipelago
/// of islands.  `prototype` is only read (clone construction), never
/// solved on, so concurrent batches may share one instance.
///
/// Scheduling is one task tree on the shared ExecutorPool: the runs are
/// top-level tasks, and each run fans its islands and replica segments
/// out as child tasks between its exchange/migration barriers.
/// `params.threads` budgets the whole tree (see batch_width), so a
/// runs×R batch exposes runs·R-way parallelism under one cap.
///
/// Determinism: the run_batch contract plus the strategy's — replica r of
/// run k draws from fork_stream(run k's stream, r), exchange and migration
/// decisions from serial per-run streams — so per-run best_x, counters,
/// and the exchange/migration/resample traces are bit-identical for any
/// thread count and any executor schedule.
BatchResult solve_batch(const core::HyCimSolver& prototype, const InitFn& init,
                        const BatchParams& params);

/// Fabricates the prototype from (form, config) and runs the overload
/// above on it, so a cached chip — the service layer's case — yields
/// bit-identical batches to a cold fabrication with the same seeds.
BatchResult solve_batch(const core::ConstrainedQuboForm& form,
                        const core::HyCimConfig& config, const InitFn& init,
                        const BatchParams& params);

/// Earlier names of solve_batch(form, ...) for tempering and archipelago
/// configs, kept so existing callers build unchanged.
inline BatchResult solve_tempered(const core::ConstrainedQuboForm& form,
                                  const core::HyCimConfig& config,
                                  const InitFn& init,
                                  const BatchParams& params) {
  return solve_batch(form, config, init, params);
}
inline BatchResult solve_archipelago(const core::ConstrainedQuboForm& form,
                                     const core::HyCimConfig& config,
                                     const InitFn& init,
                                     const BatchParams& params) {
  return solve_batch(form, config, init, params);
}

}  // namespace hycim::runtime
