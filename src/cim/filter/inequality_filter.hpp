// The FeFET-based CiM inequality filter (paper Sec. 3.3, Fig. 5(b)).
//
// Composition of a *working array* storing the item weights ®w, a *replica
// array* storing a precomputed weight vector ®w' with a hard-wired input ®x'
// such that Σ w'_i x'_i = C, and a 2-stage voltage comparator.  One filter
// evaluation discharges both matchlines and compares:
//
//   ML(working) ∝ −Σ w_i x_i,   ML(replica) ∝ −C
//   ML >= ReplicaML  ⇔  Σ w_i x_i <= C   →  feasible
//
// The replica result is evaluated once per programming (its input is fixed)
// and cached.  is_feasible() is the hot call the SA loop makes every
// iteration for candidate configurations (paper Fig. 3/6(b)).
//
// Paper Sec. 3.2: "COPs without constraints or with equality constraints
// can be considered as special cases of COPs with inequality".  A linear
// equality ®w·®x = C (Relation::kEqual) runs on the same matchline pair
// with a *window comparator* in place of the skewed one: two comparators
// check
//
//   ML >= ReplicaML − ½·unit   and   ML <= ReplicaML + ½·unit
//
// which for integer weights holds exactly when Σwᵢxᵢ = C.  This lets
// one-hot / cardinality / assignment structure move out of the penalty
// QUBO and into hardware, the same separation the inequality-QUBO
// transformation performs for inequalities.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/filter/comparator.hpp"
#include "cim/filter/filter_array.hpp"
#include "device/variation.hpp"

namespace hycim::cim {

/// Full configuration of an inequality filter.
struct InequalityFilterParams {
  FilterArrayParams array{};            ///< geometry/electrical corner
  ComparatorParams comparator{};        ///< comparator corners
  device::VariationParams variation{};  ///< fabrication corners
  std::uint64_t fab_seed = 1;           ///< seeds the fabricated population
  /// Seed of the comparator's per-decision noise stream.  0 (default)
  /// derives it from fab_seed, so a rebuilt filter replays the same
  /// measurement noise.  Batch protocols that model *independent repeated
  /// measurements on the same chip* set a distinct non-zero seed per run
  /// while keeping fab_seed (the fabricated hardware) fixed.
  std::uint64_t decision_seed = 0;
  /// Deliberate comparator threshold skew, in units of one weight's ML
  /// drop.  The constraint is `<=`, so the exact-boundary case Σwx == C
  /// produces ML == ReplicaML up to noise; skewing the decision threshold
  /// by half a unit centers the boundary on the feasible side (W == C) and
  /// the first infeasible weight (W == C+1) half a unit on the other —
  /// a standard intentional-offset comparator design.  An equality
  /// filter's window has this half-width, which must be in (0, 1).
  double margin_units = 0.5;
};

/// The relation a filter decides between ®w·®x and C.
enum class Relation {
  kAtMost,  ///< ®w·®x <= C: one comparator skewed by margin_units
  kEqual,   ///< ®w·®x == C: a window comparator of half-width margin_units
};

/// Exact (software) verdict of `relation` for a row total.
constexpr bool holds(Relation relation, long long total, long long capacity) {
  return relation == Relation::kEqual ? total == capacity : total <= capacity;
}

/// Statistics the filter keeps across evaluations (for the benches).
struct FilterStats {
  std::size_t evaluations = 0;
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
};

/// A fabricated, programmed filter for constraint ®w·®x <= C, or
/// ®w·®x = C under Relation::kEqual.
class InequalityFilter {
 public:
  /// Builds working + replica arrays for `weights` and `capacity`.
  /// Throws std::invalid_argument when a weight (or the replica's residual
  /// capacity per column) exceeds what a column can store, capacity < 0,
  /// or an equality's margin_units is outside (0, 1).  An equality filter
  /// draws its window's upper comparator, then its lower one, from the
  /// fabrication stream, deciding on the streams one and two past the
  /// decision seed.
  InequalityFilter(const InequalityFilterParams& params,
                   const std::vector<long long>& weights, long long capacity,
                   Relation relation = Relation::kAtMost);

  /// "Same chip, fresh measurement": shares `proto`'s fabricated arrays
  /// (their cells and loads are immutable; reprogram() or age() on either
  /// filter copies them on write) and copies its comparator offsets —
  /// bit-identical to refabricating with the same fab_seed, for a few
  /// small vectors instead of a device-by-device fabrication or a copy of
  /// the cells.  It zeroes the statistics and restarts the comparators'
  /// per-decision noise streams from `decision_seed` (0 = the fab-derived
  /// default stream).  This is what lets batch protocols run N independent
  /// measurements on one programmed chip without N fabrications.
  InequalityFilter(const InequalityFilter& proto, std::uint64_t decision_seed);

  ~InequalityFilter();
  InequalityFilter(InequalityFilter&&) noexcept;
  InequalityFilter& operator=(InequalityFilter&&) noexcept;

  /// Hardware feasibility decision for configuration `x` (for an equality:
  /// true iff the ML lands inside the window).
  bool is_feasible(std::span<const std::uint8_t> x);

  // --- Bound-state (incremental trial-move) API. ---------------------------
  // bind(x) caches the working array's per-column matchline contributions;
  // trial_feasible() then judges a candidate that differs by the flipped
  // columns in O(phases) instead of re-discharging all n columns.  The
  // comparator decision (noise stream, margin, stats) is identical to
  // is_feasible() — only the analog ML evaluation is incremental.

  /// Binds the working array to configuration `x`.
  void bind(std::span<const std::uint8_t> x);
  /// Whether a configuration is bound.
  bool bound() const;
  /// Feasibility verdict for the bound configuration with `flips` toggled.
  /// Counts one evaluation in stats(), like is_feasible().
  bool trial_feasible(std::span<const std::size_t> flips);
  /// Commits `flips` into the bound state.
  void apply(std::span<const std::size_t> flips);
  /// ML voltage of the bound configuration with `flips` toggled [V] — the
  /// incremental counterpart of ml_voltage(); no comparator, no stats.
  /// Used by check_incremental cross-checks.
  double trial_ml(std::span<const std::size_t> flips) const;
  /// ML voltage of the bound configuration itself [V].
  double bound_ml() const;

  /// Working-array ML voltage for `x` [V] (no comparator).
  double ml_voltage(std::span<const std::uint8_t> x) const;

  /// Cached replica ML voltage [V].
  double replica_voltage() const { return replica_ml_; }

  /// The realized comparator threshold skew [V] (margin_units × the ML
  /// drop of one weight unit at the replica operating point) — an
  /// equality's window half-width.
  double margin_voltage() const { return margin_v_; }

  /// Working ML normalized by the replica ML (the y-axis of Fig. 8).
  double normalized_ml(std::span<const std::uint8_t> x) const;

  /// Ground-truth feasibility (software check), for accuracy accounting.
  bool exact_feasible(std::span<const std::uint8_t> x) const;

  /// Re-programs both arrays with fresh cycle-to-cycle noise and refreshes
  /// the cached replica voltage.  The reprogramming stream is salted by
  /// the relation, so a ≤ and an = filter of one fab_seed draw apart.
  void reprogram();

  /// Ages both arrays by `seconds` of retention time.  Working and replica
  /// drift together, so first-order drift is common-mode and the decision
  /// threshold tracks — the structural benefit of the replica scheme.
  void age(double seconds);

  /// Number of items (working-array columns).
  std::size_t items() const { return weights_.size(); }
  /// The constraint capacity C (an equality's target).
  long long capacity() const { return capacity_; }
  /// The relation this filter decides.
  Relation relation() const { return relation_; }
  /// Evaluation counters.
  const FilterStats& stats() const { return stats_; }
  /// Access to the working array (for waveform benches).
  const FilterArray& working_array() const { return *working_; }
  /// Access to the replica array (its hard-wired input ®x' is all ones).
  const FilterArray& replica_array() const { return *replica_; }

 private:
  /// Comparator decision + stats for an already-evaluated working ML.
  bool decide(double ml);
  /// Refreshes the cached replica ML (the replica array evaluated on its
  /// all-ones input) and the margin after the arrays move.
  void refresh_thresholds();

  std::vector<long long> weights_;
  long long capacity_ = 0;
  Relation relation_ = Relation::kAtMost;
  std::unique_ptr<FilterArray> working_;
  std::unique_ptr<FilterArray> replica_;
  /// ML + margin >= Replica: the ≤ decision, and an equality window's
  /// lower half.
  std::unique_ptr<Comparator> comparator_;
  /// ML <= Replica + margin: an equality window's upper half (null for ≤).
  std::unique_ptr<Comparator> upper_;
  util::Rng reprogram_rng_;
  double replica_ml_ = 0.0;
  double margin_v_ = 0.0;
  FilterStats stats_;
  double margin_units_ = 0.5;
  /// The resolved per-decision stream seed in force (explicit
  /// params.decision_seed, or the fab-derived default) — what a clone with
  /// decision_seed = 0 restarts from.
  std::uint64_t decision_stream_seed_ = 0;
};

}  // namespace hycim::cim
