#include "core/dqubo_solver.hpp"

#include <stdexcept>
#include <utility>

#include "cim/crossbar/bit_slice.hpp"
#include "qubo/energy.hpp"

namespace hycim::core {

/// SaProblem adapter: plain QUBO annealing over [x; y], no filter.
///
/// Alongside the penalty-QUBO walk it tracks the best *feasible* item
/// selection the trajectory visits (weight and profit maintained
/// incrementally), which is what the D-QUBO framework can actually report
/// as "the QKP value it obtains" — its best-by-energy state usually
/// decodes infeasible (the trap of paper Fig. 10).
class DquboSolver::Problem final : public anneal::SaProblem {
 public:
  Problem(const qubo::FrozenQuboPtr& q, const cop::QkpInstance& inst)
      : inst_(inst), eval_(q, qubo::BitVector(q->size(), 0)) {}

  std::size_t num_bits() const override { return eval_.state().size(); }

  double reset(const qubo::BitVector& x) override {
    eval_.reset(x);
    weight_ = 0;
    profit_ = 0;
    for (std::size_t i = 0; i < inst_.n; ++i) {
      if (!x[i]) continue;
      weight_ += inst_.weights[i];
      profit_ += inst_.profit(i, i);
      for (std::size_t j = i + 1; j < inst_.n; ++j) {
        if (x[j]) profit_ += inst_.profit(i, j);
      }
    }
    best_feasible_profit_ = -1;
    best_feasible_items_.clear();
    note_if_feasible();
    return eval_.energy();
  }

  double trial_delta(const anneal::Move& m) override {
    return m.is_swap() ? eval_.delta_pair(m.bits[0], m.bits[1])
                       : eval_.delta(m.bits[0]);
  }
  void commit(const anneal::Move& m) override {
    for (const std::size_t k : m.indices()) {
      apply_item_flip(k);
      eval_.flip(k);
    }
    note_if_feasible();
  }
  const qubo::BitVector& state() const override { return eval_.state(); }
  bool supports_swaps() const override { return true; }

  /// Best feasible QKP profit visited (-1 if the walk never was feasible).
  long long best_feasible_profit() const { return best_feasible_profit_; }
  /// The corresponding item selection (empty if never feasible).
  const qubo::BitVector& best_feasible_items() const {
    return best_feasible_items_;
  }

 private:
  /// Updates the tracked item weight/profit for a flip of bit k (no-op for
  /// slack bits).  Must be called *before* eval_.flip(k).
  ///
  /// The marginal p_kk + Σ_{i≠k} p_ki·x_i sums row k of the profit matrix
  /// (== column k: the lowering checks symmetry), contiguous and
  /// branch-free: each selected item's profit is masked in.  The sums are
  /// long long, exact in any order, so the tracked profit is the same
  /// integer the column walk gave.
  void apply_item_flip(std::size_t k) {
    if (k >= inst_.n) return;
    const auto& x = eval_.state();
    const long long* row = inst_.profits.data() + k * inst_.n;
    long long selected = 0;
    for (std::size_t i = 0; i < inst_.n; ++i) {
      selected += row[i] & -static_cast<long long>(x[i]);
    }
    const long long marginal = row[k] + selected - (x[k] ? row[k] : 0);
    if (x[k]) {
      weight_ -= inst_.weights[k];
      profit_ -= marginal;
    } else {
      weight_ += inst_.weights[k];
      profit_ += marginal;
    }
  }

  void note_if_feasible() {
    if (weight_ <= inst_.capacity && profit_ > best_feasible_profit_) {
      best_feasible_profit_ = profit_;
      const auto& x = eval_.state();
      best_feasible_items_.assign(x.begin(),
                                  x.begin() + static_cast<long>(inst_.n));
    }
  }

  const cop::QkpInstance& inst_;
  qubo::IncrementalEvaluator eval_;
  long long weight_ = 0;
  long long profit_ = 0;
  long long best_feasible_profit_ = -1;
  qubo::BitVector best_feasible_items_;
};

DquboSolver::DquboSolver(const cop::QkpInstance& inst,
                         const DquboConfig& config)
    : inst_(inst), config_(config) {
  if (config_.fidelity == cim::VmvMode::kCircuit) {
    throw std::invalid_argument(
        "DquboSolver: kCircuit is not supported (the walk reads only the "
        "ideal or quantized evaluation matrix)");
  }
  // The lowering validates the instance: the tracked marginal reads profit
  // rows for columns, so it relies on the symmetry that checks.
  q_ = config_.encoding == SlackEncoding::kOneHot
           ? std::move(to_dqubo_onehot(inst, config_.penalty).q).freeze()
           : std::move(to_dqubo_binary(inst, config_.penalty.beta).q).freeze();
  const int bits =
      config_.matrix_bits > 0 ? config_.matrix_bits : q_->quantization_bits();
  cim::ProgrammedQubo programmed = cim::program(q_, bits);
  magnitude_bits_ = programmed.magnitude_bits;
  eval_ = config_.fidelity == cim::VmvMode::kIdeal
              ? q_
              : std::move(programmed.matrix);
}

std::size_t DquboSolver::size() const { return q_->size(); }

double DquboSolver::max_abs_coefficient() const {
  return q_->max_abs_coefficient();
}

const qubo::QuboMatrix& DquboSolver::matrix() const { return q_->matrix(); }

qubo::BitVector DquboSolver::random_initial(util::Rng& rng) const {
  qubo::BitVector xy(size(), 0);
  for (std::size_t i = 0; i < inst_.n; ++i) xy[i] = rng.bernoulli(0.5) ? 1 : 0;
  if (config_.encoding == SlackEncoding::kOneHot) {
    // One-hot slack at a uniformly random level 1..C.
    const auto k = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(inst_.capacity)));
    xy[inst_.n + k - 1] = 1;
  } else {
    for (std::size_t j = inst_.n; j < size(); ++j) {
      xy[j] = rng.bernoulli(0.5) ? 1 : 0;
    }
  }
  return xy;
}

QkpSolveResult DquboSolver::solve(const qubo::BitVector& xy0,
                                  std::uint64_t run_seed) {
  if (xy0.size() != size()) {
    throw std::invalid_argument("DquboSolver::solve: xy0 size mismatch");
  }
  Problem problem(eval_, inst_);
  anneal::SaParams sa = config_.sa;
  sa.seed = run_seed;
  QkpSolveResult result;
  result.sa = anneal::simulated_annealing(problem, xy0, sa);
  result.best_energy = result.sa.best_energy;
  // The framework reports the best feasible selection its trajectory
  // visited; when the walk never reached a feasible configuration, fall
  // back to decoding the best-by-energy assignment (typically infeasible —
  // the paper's "trapped" outcome, scored 0).
  if (problem.best_feasible_profit() >= 0) {
    result.best_x = problem.best_feasible_items();
    result.feasible = true;
    result.profit = problem.best_feasible_profit();
  } else {
    // Both slack encodings put the items first.
    const qubo::BitVector items(
        result.sa.best_x.begin(),
        result.sa.best_x.begin() + static_cast<long>(inst_.n));
    result.best_x = items;
    result.feasible = inst_.feasible(items);
    result.profit = result.feasible ? inst_.total_profit(items) : 0;
  }
  return result;
}

QkpSolveResult DquboSolver::solve_from_random(std::uint64_t seed) {
  util::Rng rng(seed);
  const qubo::BitVector xy0 = random_initial(rng);
  return solve(xy0, rng.next_u64());
}

}  // namespace hycim::core
