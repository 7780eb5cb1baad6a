// Simulated annealing engine (paper Fig. 6(b)).
//
// The engine is the "SA logic" block: it proposes single-bit flips, asks
// the problem for (i) hardware feasibility of the candidate configuration
// (the inequality filter hook) and (ii) the energy change (the crossbar
// QUBO computation), then applies the Metropolis acceptance rule under a
// cooling schedule.  Infeasible candidates are rejected without any QUBO
// computation and still consume an iteration — exactly the flow of Fig. 3:
// "infeasible configurations are returned to SA logic to generate the next
// input variable configuration".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "anneal/index_sampler.hpp"
#include "anneal/moves.hpp"
#include "anneal/schedule.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {

/// The problem-side interface the SA logic drives.  Implementations wrap
/// either ideal software evaluation or the CiM circuit models.
///
/// The engine runs the trial-move pipeline of paper Fig. 3/6(b) per
/// proposal:
///
///   trial_feasible(m)  — the inequality-filter hook; a rejected move costs
///                        no QUBO computation;
///   trial_delta(m)     — the QUBO computation for the candidate;
///   commit(m)          — adopt the move (a rejected one is simply dropped).
///
/// A Move covers both single-bit flips and two-bit swaps, so each problem
/// implements the pipeline once instead of once per move arity.  Trials
/// must leave the observable state() unchanged; implementations that cache
/// a speculative evaluation internally may adopt it in commit(), and must
/// not rely on hearing about a rejection.
class SaProblem {
 public:
  virtual ~SaProblem() = default;

  /// Number of binary variables.
  virtual std::size_t num_bits() const = 0;

  /// (Re)initializes the internal state to `x` and returns its energy.
  virtual double reset(const qubo::BitVector& x) = 0;

  /// Whether the configuration obtained by applying `m` is feasible.
  /// The default (unconstrained QUBO / D-QUBO) accepts everything.
  virtual bool trial_feasible(const Move& m);

  /// Energy change of applying `m` to the current state (state unchanged).
  virtual double trial_delta(const Move& m) = 0;

  /// Commits `m`: the candidate becomes the current state.
  virtual void commit(const Move& m) = 0;

  /// Current state.
  virtual const qubo::BitVector& state() const = 0;

  // The paper's SA logic only specifies that a *new input configuration* is
  // generated each iteration (Fig. 6(b)); a swap of a selected and an
  // unselected bit is the standard knapsack neighborhood — single flips
  // alone cannot exchange items through a tight capacity constraint.  The
  // engine only proposes swap moves when supports_swaps() is true.
  virtual bool supports_swaps() const { return false; }
};

/// SA hyper-parameters.
///
/// `iterations` counts *QUBO computations* (feasible proposals), matching
/// paper Fig. 6(b): an infeasible configuration is bounced back by the
/// inequality filter to the move generator without a QUBO computation and
/// without advancing the temperature schedule — this is exactly the
/// "preventing unnecessary QUBO computations" efficiency the paper claims
/// for the filter.  `max_proposals` bounds the total work when feasible
/// moves are scarce.
///
/// Under replica exchange (a ladder anneal::Island) the same struct is the
/// per-replica walk budget: every replica spends `iterations` QUBO
/// computations at its ladder temperature, so a tempered solve costs
/// `replicas × iterations` QUBO computations in total.
struct SaParams {
  std::size_t iterations = 1000;  ///< QUBO computations (paper Sec. 4.3)
  std::size_t max_proposals = 0;  ///< total-proposal cap; 0 = 100·iterations
  double t0 = 0.0;       ///< initial temperature; 0 = auto-calibrate
  double t_end_frac = 1e-3;       ///< T_end = t_end_frac · T0
  ScheduleKind schedule = ScheduleKind::kGeometric;
  std::uint64_t seed = 1;
  bool record_trace = false;      ///< store energy per QUBO computation
  /// Probability of proposing a swap move instead of a single-bit flip
  /// (only effective when the problem supports_swaps()).
  double swap_probability = 0.5;
};

/// Outcome of one SA run.
struct SaResult {
  qubo::BitVector best_x;   ///< lowest-energy state visited
  double best_energy = 0.0;
  qubo::BitVector final_x;  ///< state after the last iteration
  double final_energy = 0.0;
  std::size_t proposed = 0;   ///< all generated configurations
  std::size_t evaluated = 0;  ///< QUBO computations (feasible proposals)
  std::size_t accepted = 0;
  std::size_t rejected_infeasible = 0;  ///< filtered by the inequality filter
  std::size_t rejected_metropolis = 0;
  std::vector<double> trace;  ///< energy per QUBO computation (when recorded)
};

/// Rejects out-of-domain SA parameters (`swap_probability` outside [0,1],
/// `t_end_frac` <= 0) with std::invalid_argument.  Called at every solve
/// entry so misconfiguration fails loudly instead of silently skewing the
/// Metropolis statistics.
void validate(const SaParams& params);

/// The auto-T0 heuristic: mean |ΔE| over a sample of proposed single-bit
/// flips against the problem's current bound state (the problem must have
/// been reset).  Trials are pure — the state is untouched.  Exposed so
/// replica exchange can calibrate one ladder top shared by all replicas.
double calibrate_t0(SaProblem& problem, util::Rng& rng);

/// One resumable SA walk — the engine loop of simulated_annealing()
/// factored into a value that can be advanced in segments, which is what
/// lets replica exchange interleave exchange barriers between bursts of
/// iterations without changing the walk itself.
///
/// Two temperature modes:
///   * schedule mode (the classic single walk): the cooling law from
///     SaParams, temperature advancing per QUBO computation;
///   * fixed mode (a tempering replica): a constant temperature set at
///     construction and retargeted by set_temperature() when an exchange
///     moves the replica along the ladder.
/// Construction resets the problem to x0 and, in schedule mode with
/// params.t0 == 0, calibrates T0 from the walk's own rng — exactly the
/// consumption order simulated_annealing() has always used, so the single
/// walk is bit-identical to the pre-refactor engine.
///
/// Cache-line aligned: a ladder keeps its walks side by side and advances
/// them on different threads, and every proposal writes a walk's rng state
/// and counters.
class alignas(64) SaWalk {
 public:
  /// Schedule-driven walk (validates `params`; throws std::invalid_argument
  /// on an x0 size mismatch or a problem with no variables).
  SaWalk(SaProblem& problem, const qubo::BitVector& x0, const SaParams& params,
         util::Rng rng);

  /// Fixed-temperature walk at `temperature` (> 0 required); the schedule
  /// fields of `params` (t0, t_end_frac, schedule) are ignored.
  SaWalk(SaProblem& problem, const qubo::BitVector& x0, const SaParams& params,
         util::Rng rng, double temperature);

  /// Retargets a fixed-mode walk after a ladder exchange.
  void set_temperature(double temperature);
  /// Temperature of the next QUBO computation.
  double temperature() const;

  /// Reseats the walk on a migrant configuration (archipelago migration /
  /// population-annealing resampling): the problem state becomes `x`, the
  /// best-so-far updates if the migrant improves on it, and the swap
  /// sampler rebinds.  Counters, the rng stream, and the temperature are
  /// untouched — the walk continues from the new state.
  void reseed(const qubo::BitVector& x);

  /// Advances the walk until `evaluated() >= evaluated_target` or the
  /// total-proposal cap is reached.  Idempotent once either bound is hit.
  void run_to(std::size_t evaluated_target);

  /// QUBO computations performed so far.
  std::size_t evaluated() const { return result_.evaluated; }
  /// Whether the proposal cap terminated the walk early.
  bool exhausted() const;
  /// Energy of the problem's current state.
  double current_energy() const { return current_; }

  /// Counters and best-so-far of the walk up to this point.
  const SaResult& result() const { return result_; }
  /// Finalizes final_x / final_energy and surrenders the result.
  SaResult take_result();

 private:
  void init(const qubo::BitVector& x0);
  /// Temperature of the QUBO computation numbered `step` (from 0).
  double temperature_at(std::size_t step) const;

  SaProblem& problem_;
  SaParams params_;
  util::Rng rng_;
  std::optional<Schedule> schedule_;  ///< engaged in schedule mode only
  double fixed_temperature_ = 0.0;   ///< fixed mode's current temperature
  double current_ = 0.0;
  std::size_t proposal_cap_ = 0;
  bool swaps_enabled_ = false;
  IndexSampler sampler_;
  SaResult result_;
};

/// Runs simulated annealing on `problem` starting from `x0`.
/// `x0.size()` must equal problem.num_bits().  When params.t0 == 0 the
/// initial temperature is calibrated to the mean |ΔE| of a sample of
/// single-bit flips from x0 (a standard heuristic), so callers need no
/// per-instance tuning.
SaResult simulated_annealing(SaProblem& problem, const qubo::BitVector& x0,
                             const SaParams& params);

}  // namespace hycim::anneal
