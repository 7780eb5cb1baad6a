#include "core/hycim_solver.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "anneal/qubo_problem.hpp"
#include "qubo/energy.hpp"
#include "util/rng.hpp"

namespace hycim::core {

/// SaProblem adapter: energy via the configured fidelity path, feasibility
/// via the hardware filters or the exact predicates.  The whole pipeline is
/// incremental per trial move:
///   * software feasibility — exact row totals tracked per commit, and a
///     per-variable row index so a proposal touches only the rows that
///     contain a flipped bit (O(incidence), not O(#rows));
///   * hardware feasibility — filters bound to the current configuration;
///     only the filters incident to the flipped bits are measured
///     (support-compressed arrays, see cim::FilterBank), each trial
///     adjusting the flipped columns' matchline charge in O(phases);
///   * circuit energies — the VMV engine's bound state updates per-column
///     currents on a flip (O(n·bits), every cell's leakage modelled);
///   * ideal/quantized energies — qubo::IncrementalEvaluator local fields
///     over the chip's evaluation matrix, O(degree) per commit when the
///     matrix runs the sparse kernel (a circuit Problem builds none).
/// No per-proposal BitVector copies remain; candidates exist only as flip
/// index sets.  check_incremental re-derives everything from scratch at
/// every step and throws on divergence.
///
/// Cache-line aligned: a replica's Problems are allocated back to back and
/// walked on different threads, and every commit writes one's state.
class alignas(64) HyCimSolver::Problem final : public anneal::SaProblem {
 public:
  explicit Problem(HyCimSolver& owner)
      : owner_(owner), totals_(owner.form_->rows(), 0) {
    if (!circuit()) {
      eval_.emplace(owner.eval_, qubo::BitVector(owner.form_->size(), 0));
    }
    touched_ids_.reserve(owner.form_->rows());
  }

  std::size_t num_bits() const override { return owner_.form_->size(); }

  double reset(const qubo::BitVector& x) override {
    violated_ = 0;
    for (std::size_t r = 0; r < totals_.size(); ++r) {
      totals_[r] = constraint_total(owner_.form_->row(r), x);
      if (!holds(r, totals_[r])) ++violated_;
    }
    if (owner_.bank_) owner_.bank_->bind(x);
    if (circuit()) {
      owner_.engine_->bind(x);
      return owner_.engine_->bound_energy();
    }
    eval_->reset(x);
    return eval_->energy();
  }

  bool trial_feasible(const anneal::Move& m) override {
    const auto flips = m.indices();
    if (owner_.config_.filter_mode == FilterMode::kSoftware) {
      const auto& x = state();
      // Only the rows that contain a flipped bit can change; an untouched
      // satisfied row stays satisfied, an untouched violated one stays
      // violated (counted below) — exactly the dense all-rows scan's
      // verdict at O(incidence) cost.
      std::size_t were_violated = 0;
      for (const std::uint32_t r : touched_rows(m)) {
        const auto& w = owner_.form_->row(r).weights;
        long long t = totals_[r];
        for (const std::size_t k : flips) t += x[k] ? -w[k] : w[k];
        if (!holds(r, t)) return false;
        if (!holds(r, totals_[r])) ++were_violated;
      }
      return violated_ <= were_violated;
    }
    if (owner_.config_.check_incremental) check_filter_trials(m);
    // The bank measures only the filters wired to a flipped bit, ≤ rows
    // before = rows, with the AND short-circuit.
    return !owner_.bank_ || owner_.bank_->trial_feasible(flips);
  }

  double trial_delta(const anneal::Move& m) override {
    const auto flips = m.indices();
    double d;
    if (circuit()) {
      d = owner_.engine_->trial(flips) - owner_.engine_->bound_energy();
    } else {
      d = m.is_swap() ? eval_->delta_pair(m.bits[0], m.bits[1])
                      : eval_->delta(m.bits[0]);
    }
    if (owner_.config_.check_incremental) check_trial_delta(m, d);
    return d;
  }

  void commit(const anneal::Move& m) override {
    const auto flips = m.indices();
    apply_totals(m);
    if (owner_.bank_) owner_.bank_->apply(flips);
    if (circuit()) {
      owner_.engine_->apply(flips);
    } else if (m.is_swap()) {
      eval_->flip_pair(m.bits[0], m.bits[1]);
    } else {
      eval_->flip(m.bits[0]);
    }
    if (owner_.config_.check_incremental) check_committed_state();
  }

  const qubo::BitVector& state() const override {
    return circuit() ? owner_.engine_->bound_input() : eval_->state();
  }

  bool supports_swaps() const override { return true; }

 private:
  bool circuit() const {
    return owner_.config_.fidelity == cim::VmvMode::kCircuit;
  }

  bool adc_noiseless() const {
    return owner_.engine_->params().adc.sigma_noise_a == 0.0;
  }

  /// Whether row r's exact total satisfies the row's relation.
  bool holds(std::size_t r, long long total) const {
    const ConstrainedQuboForm& form = *owner_.form_;
    return cim::holds(form.relation(r), total, form.row(r).capacity);
  }

  /// Unique row ids touched by `m`, ascending: a flip's row list in place,
  /// or the union of a swap's two (each list is ascending and unique).
  std::span<const std::uint32_t> touched_rows(const anneal::Move& m) {
    const auto& by_var = *owner_.rows_by_var_;
    if (!m.is_swap()) return by_var[m.bits[0]];
    const auto& a = by_var[m.bits[0]];
    const auto& b = by_var[m.bits[1]];
    touched_ids_.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(touched_ids_));
    return touched_ids_;
  }

  qubo::BitVector candidate_of(const anneal::Move& m) const {
    qubo::BitVector candidate = state();
    for (const std::size_t k : m.indices()) candidate[k] ^= 1;
    return candidate;
  }

  static void check_near(double incremental, double full, double tol,
                         const char* what) {
    if (std::abs(incremental - full) > tol) {
      throw std::logic_error(
          std::string("HyCimSolver check_incremental: ") + what +
          " diverged: incremental=" + std::to_string(incremental) +
          " full=" + std::to_string(full));
    }
  }

  /// Cross-checks every filter's incremental trial matchline voltage
  /// against a full re-discharge of the candidate.  Uses the analog,
  /// comparator-free paths so the decision noise streams are untouched;
  /// untouched filters must report an unchanged matchline.
  void check_filter_trials(const anneal::Move& m) {
    if (!owner_.bank_) return;
    const auto flips = m.indices();
    const qubo::BitVector candidate = candidate_of(m);
    for (std::size_t r = 0; r < owner_.bank_->size(); ++r) {
      check_near(owner_.bank_->trial_ml(r, flips),
                 owner_.bank_->ml_voltage(r, candidate), kMlTolVolts,
                 "filter trial ML");
    }
  }

  /// Cross-checks the incremental energy delta against full recomputation.
  void check_trial_delta(const anneal::Move& m, double d) {
    const double tol = 1e-6 * std::max(1.0, std::abs(d));
    if (circuit()) {
      // A fresh full evaluation redraws ADC noise; only the noiseless
      // corner is comparable.
      if (!adc_noiseless()) return;
      const double full = owner_.engine_->energy(candidate_of(m)) -
                          owner_.engine_->energy(state());
      check_near(d, full, tol, "circuit trial delta");
      return;
    }
    const auto& eval = *owner_.eval_;
    const double full = eval.energy(candidate_of(m)) - eval.energy(state());
    check_near(d, full, tol, "eval trial delta");
  }

  /// After a commit: cached energies and filter matchlines must still match
  /// a from-scratch evaluation of the new state.
  void check_committed_state() {
    const auto& x = state();
    if (circuit()) {
      if (adc_noiseless()) {
        const double e = owner_.engine_->bound_energy();
        check_near(e, owner_.engine_->energy(x),
                   1e-6 * std::max(1.0, std::abs(e)), "committed energy");
      }
    } else {
      const double e = eval_->energy();
      check_near(e, eval_->recompute(), 1e-6 * std::max(1.0, std::abs(e)),
                 "committed energy");
    }
    if (owner_.bank_) {
      for (std::size_t r = 0; r < owner_.bank_->size(); ++r) {
        check_near(owner_.bank_->bound_ml(r), owner_.bank_->ml_voltage(r, x),
                   kMlTolVolts, "committed filter ML");
      }
    }
  }

  /// Updates the tracked row totals (and the violation count) for a
  /// committed move — only the incident rows change.
  void apply_totals(const anneal::Move& m) {
    const auto flips = m.indices();
    const auto& x = state();  // pre-commit: the energy path flips after this
    for (const std::uint32_t r : touched_rows(m)) {
      const auto& w = owner_.form_->row(r).weights;
      const bool was = holds(r, totals_[r]);
      for (const std::size_t k : flips) totals_[r] += x[k] ? -w[k] : w[k];
      const bool now = holds(r, totals_[r]);
      if (was != now) violated_ += now ? -1 : 1;
    }
  }

  /// Incremental-vs-full matchline agreement bound [V]: float-rounding
  /// drift over at most kRebindInterval commits, orders of magnitude under
  /// any comparator margin.
  static constexpr double kMlTolVolts = 1e-9;

  HyCimSolver& owner_;
  std::optional<qubo::IncrementalEvaluator> eval_;  ///< outside kCircuit
  std::vector<long long> totals_;  ///< exact ®w·®x per row
  std::size_t violated_ = 0;       ///< rows the current state breaks
  // Scratch for the incidence-gated software-totals path.
  std::vector<std::uint32_t> touched_ids_;
};

HyCimSolver::HyCimSolver(const ConstrainedQuboForm& form,
                         const HyCimConfig& config)
    : form_(std::make_shared<const ConstrainedQuboForm>(form)),
      config_(config) {
  if (form.size() == 0) {
    throw std::invalid_argument("HyCimSolver: the form has no variables");
  }
  // Every later pass reads a row's weights at the form's variable indices.
  for (std::size_t r = 0; r < form.rows(); ++r) {
    if (form.row(r).weights.size() == form.size()) continue;
    const bool equality = form.relation(r) == cim::Relation::kEqual;
    throw std::invalid_argument(
        std::string("HyCimSolver: ") +
        (equality ? "equality " : "inequality ") +
        std::to_string(equality ? r - form.constraints.size() : r) +
        " has " + std::to_string(form.row(r).weights.size()) +
        " weights for " + std::to_string(form.size()) + " variables");
  }

  qubo::FrozenQuboPtr q = form.q.freeze();
  switch (config_.fidelity) {
    case cim::VmvMode::kIdeal:
      cim::check_max_bits(config_.matrix_bits);
      eval_ = std::move(q);
      break;
    case cim::VmvMode::kQuantized:
      eval_ = cim::program(std::move(q), config_.matrix_bits).matrix;
      break;
    case cim::VmvMode::kCircuit:
      // The walked matrix comes from the engine's own quantization, so no
      // matrix is quantized twice; nothing walks it, so nothing builds its
      // kernel structure.
      engine_ = std::make_unique<cim::VmvEngine>(*q, config_.matrix_bits,
                                                 config_.vmv);
      eval_ = engine_->quantized().dequantize(q);
      break;
  }
  // Build the structure the evaluation matrix's kernel walks once, at
  // fabrication: every clone shares it.
  if (!engine_) {
    if (eval_->kernel() == qubo::Kernel::kSparse) {
      eval_->neighbor_index();
    } else {
      eval_->dense_rows();
    }
  }

  if (config_.filter_mode == FilterMode::kHardware && form_->rows() > 0) {
    bank_ = std::make_unique<cim::FilterBank>(
        config_.filter, form_->constraints, form_->equalities, form_->size());
  }
  auto rows_by_var =
      std::make_shared<std::vector<std::vector<std::uint32_t>>>(form_->size());
  for (std::size_t r = 0; r < form_->rows(); ++r) {
    const auto& w = form_->row(r).weights;
    for (std::size_t k = 0; k < w.size(); ++k) {
      if (w[k] != 0) {
        (*rows_by_var)[k].push_back(static_cast<std::uint32_t>(r));
      }
    }
  }
  rows_by_var_ = std::move(rows_by_var);
}

HyCimSolver::HyCimSolver(const HyCimSolver& proto,
                         std::uint64_t decision_seed)
    : form_(proto.form_),
      config_(proto.config_),
      eval_(proto.eval_),
      rows_by_var_(proto.rows_by_var_) {
  if (proto.engine_) {
    engine_ = std::make_unique<cim::VmvEngine>(*proto.engine_);
  }
  if (decision_seed != 0) config_.filter.decision_seed = decision_seed;
  if (proto.bank_) {
    bank_ = std::make_unique<cim::FilterBank>(*proto.bank_, decision_seed);
  }
}

HyCimSolver::~HyCimSolver() = default;
HyCimSolver::HyCimSolver(HyCimSolver&&) noexcept = default;
HyCimSolver& HyCimSolver::operator=(HyCimSolver&&) noexcept = default;

SolveResult HyCimSolver::solve(const qubo::BitVector& x0,
                               std::uint64_t run_seed,
                               const anneal::Executor& executor,
                               const util::CancelToken& cancel) {
  if (x0.size() != form_->size()) {
    throw std::invalid_argument("HyCimSolver::solve: x0 size mismatch");
  }
  anneal::validate(config_.sa);
  const std::size_t replica_count = anneal::replicas_of(config_.search);

  // Replica problems.  A form without rows has nothing to filter, so
  // unless its energies come from the circuit or every step is
  // cross-checked, each replica walks a plain anneal::QuboProblem over
  // this chip's frozen evaluation matrix: the matrix every clone shares,
  // read by the same kernels, so the solve is bit-identical to the chip
  // path for any search kind and filter mode.  Otherwise single-walk SA
  // anneals on this chip directly, and a multi-replica search binds each
  // replica to its own clone of it with an independent comparator
  // decision stream forked from the run seed ("program once, temper
  // many") — N independent measurements on one fabrication, same as the
  // batch runner's protocol.
  const bool plain_replicas = form_->rows() == 0 &&
                              config_.fidelity != cim::VmvMode::kCircuit &&
                              !config_.check_incremental;
  std::vector<HyCimSolver> chips;
  std::vector<std::unique_ptr<anneal::SaProblem>> problems;
  if (plain_replicas) {
    for (std::size_t r = 0; r < replica_count; ++r) {
      problems.push_back(std::make_unique<anneal::QuboProblem>(eval_));
    }
  } else if (replica_count == 1) {
    problems.push_back(std::make_unique<Problem>(*this));
  } else {
    chips.reserve(replica_count);  // no reallocation: Problems hold refs
    for (std::size_t r = 0; r < replica_count; ++r) {
      // High-bit stream ids keep the decision forks disjoint from the
      // replica walk streams 0..R-1 the strategy draws from the same root.
      std::uint64_t decision_seed =
          util::fork_seed(run_seed, 0xC0000000ULL + r);
      if (decision_seed == 0) decision_seed = 1;  // 0 means "keep proto's"
      chips.emplace_back(*this, decision_seed);
    }
    for (std::size_t r = 0; r < replica_count; ++r) {
      problems.push_back(std::make_unique<Problem>(chips[r]));
    }
  }
  std::vector<anneal::SaProblem*> problem_ptrs;
  for (const auto& p : problems) problem_ptrs.push_back(p.get());

  anneal::SearchResult search = anneal::run_search(
      config_.search, problem_ptrs, x0, config_.sa, run_seed, executor, cancel);
  SolveResult result;
  result.status = status_of(search.stopped);
  result.sa = std::move(search.sa);
  static_cast<anneal::SearchTelemetry&>(result) = std::move(search);
  result.best_x = result.sa.best_x;
  result.best_energy = result.sa.best_energy;
  result.feasible = form_->feasible(result.best_x);
  result.kernel = kernel();
  return result;
}

void HyCimSolver::retarget_solve(const HyCimConfig& config) {
  config_.sa = config.sa;
  config_.search = config.search;
  config_.check_incremental = config.check_incremental;
}

void HyCimSolver::reprogram() {
  if (engine_) engine_->reprogram();
  if (bank_) bank_->reprogram();
}

}  // namespace hycim::core
