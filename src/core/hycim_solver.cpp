#include "core/hycim_solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "anneal/replica_batch.hpp"
#include "qubo/energy.hpp"
#include "util/rng.hpp"

namespace hycim::core {

/// SaProblem adapter: energy via the configured fidelity path, feasibility
/// via the hardware filters or the exact predicates.  The whole pipeline is
/// incremental per trial move:
///   * software feasibility — constraint totals tracked per commit, and a
///     per-variable incidence index so a proposal touches only the
///     constraints whose rows contain a flipped bit (O(incidence), not
///     O(#constraints));
///   * hardware feasibility — filters bound to the current configuration;
///     only the filters incident to the flipped bits are measured
///     (support-compressed arrays, see cim::FilterBank), each trial
///     adjusting the flipped columns' matchline charge in O(phases);
///   * circuit energies — the VMV engine's bound state updates per-column
///     currents on a flip (O(degree·bits) under the sparse kernel);
///   * ideal/quantized energies — qubo::IncrementalEvaluator local fields,
///     O(degree) per commit under the sparse kernel.
/// No per-proposal BitVector copies remain; candidates exist only as flip
/// index sets.  check_incremental re-derives everything from scratch at
/// every step and throws on divergence.
class HyCimSolver::Problem final : public anneal::SaProblem {
 public:
  explicit Problem(HyCimSolver& owner)
      : owner_(owner),
        eval_(owner.engine_->eval_matrix(),
              qubo::BitVector(owner.form_->size(), 0),
              owner.resolved_kernel_),
        totals_(owner.form_->constraints.size(), 0),
        eq_totals_(owner.form_->equalities.size(), 0) {}

  std::size_t num_bits() const override { return owner_.form_->size(); }

  double reset(const qubo::BitVector& x) override {
    const auto& cs = owner_.form_->constraints;
    violated_ = 0;
    for (std::size_t c = 0; c < cs.size(); ++c) {
      totals_[c] = constraint_total(cs[c], x);
      if (totals_[c] > cs[c].capacity) ++violated_;
    }
    const auto& es = owner_.form_->equalities;
    eq_violated_ = 0;
    for (std::size_t c = 0; c < es.size(); ++c) {
      eq_totals_[c] = constraint_total(es[c], x);
      if (eq_totals_[c] != es[c].capacity) ++eq_violated_;
    }
    if (hardware()) {
      if (owner_.bank_) owner_.bank_->bind(x);
      for (std::size_t e = 0; e < owner_.equality_filters_.size(); ++e) {
        owner_.equality_filters_[e].bind(owner_.eq_gather(e, x));
      }
    }
    if (circuit()) {
      owner_.engine_->bind(x);
      return owner_.engine_->bound_energy();
    }
    eval_.reset(x);
    return eval_.energy();
  }

  bool trial_feasible(const anneal::Move& m) override {
    const auto flips = m.indices();
    if (owner_.config_.filter_mode == FilterMode::kSoftware) {
      const auto& x = state();
      const auto& cs = owner_.form_->constraints;
      // Only the constraints whose rows contain a flipped bit can change;
      // an untouched satisfied constraint stays satisfied, an untouched
      // violated one stays violated (counted below) — exactly the dense
      // all-constraints scan's verdict at O(incidence) cost.
      gather_touched(owner_.ineq_by_var_, flips);
      std::size_t were_violated = 0;
      for (const std::uint32_t c : touched_ids_) {
        long long t = totals_[c];
        for (const std::size_t k : flips) {
          t += x[k] ? -cs[c].weights[k] : cs[c].weights[k];
        }
        if (t > cs[c].capacity) return false;
        if (totals_[c] > cs[c].capacity) ++were_violated;
      }
      if (violated_ > were_violated) return false;
      const auto& es = owner_.form_->equalities;
      gather_touched(owner_.eq_by_var_, flips);
      were_violated = 0;
      for (const std::uint32_t c : touched_ids_) {
        long long t = eq_totals_[c];
        for (const std::size_t k : flips) {
          t += x[k] ? -es[c].weights[k] : es[c].weights[k];
        }
        if (t != es[c].capacity) return false;
        if (eq_totals_[c] != es[c].capacity) ++were_violated;
      }
      return eq_violated_ <= were_violated;
    }
    if (owner_.config_.check_incremental) check_filter_trials(m);
    // Same evaluation order as before the incidence index: the bank's AND
    // short-circuit first (ascending filter order), then the equality
    // windows — but only the filters wired to a flipped bit are measured.
    if (owner_.bank_ && !owner_.bank_->trial_feasible(flips)) return false;
    for (const auto& touched : owner_.eq_incidence_.group(flips)) {
      if (!owner_.equality_filters_[touched.filter].trial_satisfied(
              touched.locals)) {
        return false;
      }
    }
    return true;
  }

  double trial_delta(const anneal::Move& m) override {
    const auto flips = m.indices();
    double d;
    if (circuit()) {
      d = owner_.engine_->trial(flips) - owner_.engine_->bound_energy();
    } else {
      d = m.is_swap() ? eval_.delta_pair(m.bits[0], m.bits[1])
                      : eval_.delta(m.bits[0]);
    }
    if (owner_.config_.check_incremental) check_trial_delta(m, d);
    return d;
  }

  void commit(const anneal::Move& m) override {
    const auto flips = m.indices();
    apply_totals(flips);
    if (hardware()) {
      if (owner_.bank_) owner_.bank_->apply(flips);
      for (const auto& touched : owner_.eq_incidence_.group(flips)) {
        owner_.equality_filters_[touched.filter].apply(touched.locals);
      }
    }
    if (circuit()) {
      owner_.engine_->apply(flips);
    } else if (m.is_swap()) {
      eval_.flip_pair(m.bits[0], m.bits[1]);
    } else {
      eval_.flip(m.bits[0]);
    }
    if (owner_.config_.check_incremental) check_committed_state();
  }

  const qubo::BitVector& state() const override {
    return circuit() ? owner_.engine_->bound_input() : eval_.state();
  }

  bool supports_swaps() const override { return true; }

 private:
  bool circuit() const {
    return owner_.config_.fidelity == cim::VmvMode::kCircuit;
  }

  bool hardware() const {
    return owner_.config_.filter_mode == FilterMode::kHardware;
  }

  bool adc_noiseless() const {
    return owner_.engine_->params().adc.sigma_noise_a == 0.0;
  }

  /// Unique constraint ids (from a per-variable incidence table) touched
  /// by `flips`, into touched_ids_.
  void gather_touched(const std::vector<std::vector<std::uint32_t>>& by_var,
                      std::span<const std::size_t> flips) {
    touched_ids_.clear();
    for (const std::size_t k : flips) {
      for (const std::uint32_t c : by_var[k]) touched_ids_.push_back(c);
    }
    std::sort(touched_ids_.begin(), touched_ids_.end());
    touched_ids_.erase(std::unique(touched_ids_.begin(), touched_ids_.end()),
                       touched_ids_.end());
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
    const auto flips = m.indices();
    const qubo::BitVector candidate = candidate_of(m);
    if (owner_.bank_) {
      for (std::size_t i = 0; i < owner_.bank_->size(); ++i) {
        check_near(owner_.bank_->trial_ml(i, flips),
                   owner_.bank_->ml_voltage(i, candidate), kMlTolVolts,
                   "inequality-filter trial ML");
      }
    }
    for (std::size_t e = 0; e < owner_.equality_filters_.size(); ++e) {
      const auto& eq = owner_.equality_filters_[e];
      check_near(eq_trial_ml(e, flips),
                 eq.ml_voltage(owner_.eq_gather(e, candidate)), kMlTolVolts,
                 "equality-filter trial ML");
    }
  }

  /// Equality filter e's incremental trial ML for global flips (bound ML
  /// when untouched).
  double eq_trial_ml(std::size_t e, std::span<const std::size_t> flips) {
    for (const auto& touched : owner_.eq_incidence_.group(flips)) {
      if (touched.filter == e) {
        return owner_.equality_filters_[e].trial_ml(touched.locals);
      }
    }
    return owner_.equality_filters_[e].bound_ml();
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
    const auto& eval = *owner_.engine_->eval_matrix();
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
      const double e = eval_.energy();
      check_near(e, eval_.recompute(), 1e-6 * std::max(1.0, std::abs(e)),
                 "committed energy");
    }
    if (hardware()) {
      if (owner_.bank_) {
        for (std::size_t i = 0; i < owner_.bank_->size(); ++i) {
          check_near(owner_.bank_->bound_ml(i),
                     owner_.bank_->ml_voltage(i, x), kMlTolVolts,
                     "committed filter ML");
        }
      }
      for (std::size_t e = 0; e < owner_.equality_filters_.size(); ++e) {
        const auto& eq = owner_.equality_filters_[e];
        check_near(eq.bound_ml(), eq.ml_voltage(owner_.eq_gather(e, x)),
                   kMlTolVolts, "committed equality ML");
      }
    }
  }

  /// Updates the tracked constraint totals (and violation counts) for a
  /// committed move — only the incident constraints change.
  void apply_totals(std::span<const std::size_t> flips) {
    const auto& x = state();  // pre-commit: the energy path flips after this
    const auto& cs = owner_.form_->constraints;
    gather_touched(owner_.ineq_by_var_, flips);
    for (const std::uint32_t c : touched_ids_) {
      const bool was = totals_[c] > cs[c].capacity;
      for (const std::size_t k : flips) {
        totals_[c] += x[k] ? -cs[c].weights[k] : cs[c].weights[k];
      }
      const bool now = totals_[c] > cs[c].capacity;
      if (was != now) violated_ += now ? 1 : -1;
    }
    const auto& es = owner_.form_->equalities;
    gather_touched(owner_.eq_by_var_, flips);
    for (const std::uint32_t c : touched_ids_) {
      const bool was = eq_totals_[c] != es[c].capacity;
      for (const std::size_t k : flips) {
        eq_totals_[c] += x[k] ? -es[c].weights[k] : es[c].weights[k];
      }
      const bool now = eq_totals_[c] != es[c].capacity;
      if (was != now) eq_violated_ += now ? 1 : -1;
    }
  }

  /// Incremental-vs-full matchline agreement bound [V]: float-rounding
  /// drift over at most kRebindInterval commits, orders of magnitude under
  /// any comparator margin.
  static constexpr double kMlTolVolts = 1e-9;

  HyCimSolver& owner_;
  qubo::IncrementalEvaluator eval_;
  std::vector<long long> totals_;
  std::vector<long long> eq_totals_;
  std::size_t violated_ = 0;     ///< inequality rows the current state breaks
  std::size_t eq_violated_ = 0;  ///< equality rows the current state breaks
  // Scratch for the incidence-gated software-totals path.
  std::vector<std::uint32_t> touched_ids_;
};

HyCimSolver::HyCimSolver(const ConstrainedQuboForm& form,
                         const HyCimConfig& config)
    : form_(std::make_shared<const ConstrainedQuboForm>(form)),
      config_(config) {
  cim::VmvEngineParams vmv = config_.vmv;
  vmv.mode = config_.fidelity;
  vmv.matrix_bits = config_.matrix_bits;
  vmv.kernel = config_.kernel;
  engine_ = std::make_unique<cim::VmvEngine>(vmv, form.q.freeze());

  // Kernel dispatch happens here, at fabrication: measure the density of
  // the matrix the hot loop will walk (the one the hardware stores — see
  // VmvEngine::eval_matrix), resolve the config's choice, and build the
  // structure that kernel reads once — every clone shares it.
  const qubo::FrozenQubo& eval = *engine_->eval_matrix();
  resolved_kernel_ = qubo::resolve_kernel(config_.kernel, eval.density());
  if (resolved_kernel_ == qubo::Kernel::kSparse) {
    eval.neighbor_index();
  } else {
    eval.dense_rows();
  }

  if (config_.filter_mode == FilterMode::kHardware) {
    if (!form_->constraints.empty()) {
      bank_ = std::make_unique<cim::FilterBank>(
          config_.filter, form_->constraints, form_->size());
    }
    for (std::size_t e = 0; e < form_->equalities.size(); ++e) {
      cim::InequalityFilterParams p = config_.filter;
      p.fab_seed = config_.filter.fab_seed + 1000 + e;
      // Hash-derived (not additive) per-filter noise streams: additive
      // offsets would collide with the bank's and with the +1/+2 strides
      // the window comparators apply inside one filter.
      if (p.decision_seed != 0) {
        p.decision_seed =
            util::fork_seed(p.decision_seed, 0x80000000ULL + e);
      }
      // Support compression, like the bank: the filter's columns are the
      // variables the equality actually weights.
      std::vector<long long> weights;
      std::vector<std::uint32_t> support;
      for (std::size_t k = 0; k < form_->size(); ++k) {
        if (form_->equalities[e].weights[k] == 0) continue;
        support.push_back(static_cast<std::uint32_t>(k));
        weights.push_back(form_->equalities[e].weights[k]);
      }
      eq_supports_.push_back(std::move(support));
      equality_filters_.emplace_back(p, weights,
                                     form_->equalities[e].capacity);
    }
  }
  build_incidence();
}

void HyCimSolver::build_incidence() {
  const std::size_t n = form_->size();
  ineq_by_var_.assign(n, {});
  for (std::size_t c = 0; c < form_->constraints.size(); ++c) {
    const auto& w = form_->constraints[c].weights;
    for (std::size_t k = 0; k < n; ++k) {
      if (w[k] != 0) {
        ineq_by_var_[k].push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  eq_by_var_.assign(n, {});
  for (std::size_t c = 0; c < form_->equalities.size(); ++c) {
    const auto& w = form_->equalities[c].weights;
    for (std::size_t k = 0; k < n; ++k) {
      if (w[k] != 0) {
        eq_by_var_[k].push_back(static_cast<std::uint32_t>(c));
      }
    }
  }
  // Equality-filter incidence (hardware mode; empty supports otherwise).
  eq_incidence_ = cim::VariableIncidence(eq_supports_, n);
}

qubo::BitVector HyCimSolver::eq_gather(std::size_t e,
                                       std::span<const std::uint8_t> x) const {
  const auto& support = eq_supports_.at(e);
  qubo::BitVector local(support.size());
  for (std::size_t s = 0; s < support.size(); ++s) local[s] = x[support[s]];
  return local;
}

HyCimSolver::HyCimSolver(const HyCimSolver& proto,
                         std::uint64_t decision_seed)
    : form_(proto.form_),
      config_(proto.config_),
      engine_(std::make_unique<cim::VmvEngine>(*proto.engine_)),
      resolved_kernel_(proto.resolved_kernel_),
      ineq_by_var_(proto.ineq_by_var_),
      eq_by_var_(proto.eq_by_var_),
      eq_supports_(proto.eq_supports_),
      eq_incidence_(proto.eq_incidence_) {
  if (decision_seed != 0) config_.filter.decision_seed = decision_seed;
  if (proto.bank_) {
    bank_ = std::make_unique<cim::FilterBank>(*proto.bank_, decision_seed);
  }
  equality_filters_.reserve(proto.equality_filters_.size());
  for (std::size_t e = 0; e < proto.equality_filters_.size(); ++e) {
    // Same hash-derived per-filter stream the fabricating constructor uses.
    const std::uint64_t seed =
        decision_seed != 0
            ? util::fork_seed(decision_seed, 0x80000000ULL + e)
            : 0;
    equality_filters_.emplace_back(proto.equality_filters_[e], seed);
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

  // Replica chips: tempering binds each replica to its own clone of this
  // programmed chip with an independent comparator decision stream forked
  // from the run seed ("program once, temper many") — N independent
  // measurements on one fabrication, same as the batch runner's protocol.
  // Single-walk SA anneals on this chip directly, byte-identical to the
  // pre-strategy engine.
  std::vector<HyCimSolver> chips;
  std::vector<std::unique_ptr<Problem>> problems;
  std::vector<anneal::SaProblem*> problem_ptrs;
  // A tempered solve that reduces to a pure QUBO walk — software filters
  // with nothing to filter, energies from the incremental evaluator, no
  // cross-checking — batches its replicas through one shared-matrix SoA
  // arena instead of one chip clone (filters + engine state) per replica.
  // The views run the same kernels over the same matrix, so the solve is
  // bit-identical to the cloned-chip path; only the layout changes.
  const bool batch_replicas =
      replica_count > 1 && config_.fidelity != cim::VmvMode::kCircuit &&
      config_.filter_mode == FilterMode::kSoftware &&
      form_->constraints.empty() && form_->equalities.empty() &&
      !config_.check_incremental;
  std::optional<anneal::QuboReplicaBatch> batch;
  if (batch_replicas) {
    batch.emplace(engine_->eval_matrix(), replica_count, resolved_kernel_);
    problem_ptrs = batch->problems();
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
  result.kernel = resolved_kernel_;
  return result;
}

void HyCimSolver::retarget_solve(const HyCimConfig& config) {
  config_.sa = config.sa;
  config_.search = config.search;
  config_.check_incremental = config.check_incremental;
}

void HyCimSolver::reprogram() {
  engine_->reprogram();
  if (bank_) bank_->reprogram();
  for (auto& eq : equality_filters_) eq.reprogram();
}

}  // namespace hycim::core
