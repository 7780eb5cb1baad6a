#include "core/dqubo_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace hycim::core {

namespace {

/// Wide enough for every product the constructor forms before it knows
/// the form is admitted (GCC and Clang on 64-bit targets).
using Wide = __int128;

/// The admitted bound: |offset| + Σ_{i≤j} |Q_ij| < 2^52, so twice the sum
/// — a bound on every energy, field and pair-delta term — stays below
/// 2^53, where every integer is an exact double.
constexpr Wide kAdmitted = Wide{1} << 52;

/// Past this, no product needs to be formed exactly.
constexpr Wide kFar = Wide{1} << 100;

[[noreturn]] void throw_too_large() {
  throw std::invalid_argument(
      "DquboSolver: 2·(|offset| + Σ|Q_ij|) >= 2^53, so the penalty form's "
      "energies are not exact doubles");
}

/// a·b for a, b >= 0.  Each product the constructor forms is a family
/// total, a coefficient's magnitude up to an int64 term, or a factor of
/// one whose remaining factors are >= 1; so a product of 2^100 or more
/// means a coefficient or a total far past the bound, and throws that.
Wide times(Wide a, Wide b) {
  if (a == 0 || b == 0) return 0;
  if (a >= kFar || b >= kFar || a > (kFar - 1) / b) throw_too_large();
  return a * b;
}

/// A penalty weight as an exact integer: std::invalid_argument unless `v`
/// is a finite non-negative integer.  One of 2^53 or more fails the bound
/// in every form that reads it (α is the one-hot offset; β scales a
/// coefficient of at least β in both encodings), so it throws that.
Wide penalty_weight(double v, const char* name) {
  if (!std::isfinite(v) || v < 0.0 || v != std::floor(v)) {
    throw std::invalid_argument(std::string("DquboSolver: penalty ") + name +
                                " must be a non-negative integer");
  }
  if (v >= 0x1p53) throw_too_large();
  return static_cast<Wide>(v);
}

/// |offset| + Σ|Q_ij| and max |Q_ij|, summed family by family; throws as
/// soon as the sum reaches the bound, so the sum never overflows.
class Magnitudes {
 public:
  void add_total(Wide v) {
    if (v >= kAdmitted - sum_) throw_too_large();
    sum_ += v;
  }
  void add_largest(Wide v) { max_ = std::max(max_, v); }
  /// One coefficient: its magnitude joins both the sum and the max.
  long long add_coefficient(Wide q) {
    const Wide magnitude = q < 0 ? -q : q;
    add_total(magnitude);
    add_largest(magnitude);
    return static_cast<long long>(q);
  }
  double max() const { return static_cast<double>(max_); }

 private:
  Wide sum_ = 0;
  Wide max_ = 0;
};

}  // namespace

/// SaProblem adapter: plain QUBO annealing over [x; y], no filter, on the
/// penalty form's aggregates.
///
/// It keeps W = Σ w_i x_i, S = Σ ℓ_a y_a, Y = Σ y_a, the exact energy E,
/// and each item's field over the item block, r_i = q_ii + Σ_{j≠i} q_ij x_j.
/// A bit's field φ_k = q_kk + Σ_{j≠k} q_kj z_j is then
///   item i:   r_i + σ2βw_i·S
///   slack a:  q_aa + 2α(Y − y_a) + 2βℓ_a·(S − ℓ_a y_a + σW)
/// and trials turn fields and couplings into deltas with the double
/// expressions of qubo::IncrementalEvaluator::delta / delta_pair.  Every
/// value is an integer within a few times the admitted bound, far inside
/// int64, and below 2^53 wherever it becomes a double, so the walk is the
/// matrix walk bit for bit.
///
/// Alongside the walk it tracks the best *feasible* item selection the
/// trajectory visits, which is what the D-QUBO framework can actually
/// report as "the QKP value it obtains" — its best-by-energy state usually
/// decodes infeasible (the trap of paper Fig. 10).  The selection's profit
/// is P = penalty(W, S, Y) − E, the energy's own split into −P and the
/// penalties.
class DquboSolver::Problem final : public anneal::SaProblem {
 public:
  explicit Problem(const DquboSolver& form)
      : form_(form), x_(form.size(), 0), r_(form.n_items()) {}

  std::size_t num_bits() const override { return x_.size(); }

  /// Builds the state bit by bit from all zeros, adding each bit's field
  /// to the energy as it is set: O(n·|x| + size()).
  double reset(const qubo::BitVector& xy) override {
    std::fill(x_.begin(), x_.end(), 0);
    std::copy(form_.item_diag_.begin(), form_.item_diag_.end(), r_.begin());
    weight_ = slack_ = hot_ = 0;
    energy_ = form_.offset_;
    for (std::size_t k = 0; k < xy.size(); ++k) {
      if (xy[k]) flip(k);
    }
    best_feasible_profit_ = -1;
    best_feasible_items_.clear();
    note_if_feasible();
    return static_cast<double>(energy_);
  }

  double trial_delta(const anneal::Move& m) override {
    if (!m.is_swap()) return delta(m.bits[0]);
    const std::size_t i = m.bits[0];
    const std::size_t j = m.bits[1];
    const double si = x_[i] ? -1.0 : 1.0;
    const double sj = x_[j] ? -1.0 : 1.0;
    return delta(i) + delta(j) +
           si * sj * static_cast<double>(coupling(i, j));
  }

  void commit(const anneal::Move& m) override {
    for (const std::size_t k : m.indices()) flip(k);
    note_if_feasible();
  }

  const qubo::BitVector& state() const override { return x_; }
  bool supports_swaps() const override { return true; }

  /// Best feasible QKP profit visited (-1 if the walk never was feasible).
  long long best_feasible_profit() const { return best_feasible_profit_; }
  /// The corresponding item selection (empty if never feasible).
  const qubo::BitVector& best_feasible_items() const {
    return best_feasible_items_;
  }

 private:
  std::size_t n() const { return r_.size(); }

  long long field(std::size_t k) const {
    if (k < n()) return r_[k] + form_.item_slack_[k] * slack_;
    const std::size_t a = k - n();
    const long long level = form_.levels_[a];
    const long long y = x_[k];
    return form_.slack_diag_[a] + 2 * form_.alpha_ * (hot_ - y) +
           2 * form_.beta_ * level *
               (slack_ - level * y + form_.sigma_ * weight_);
  }

  /// q_ij for i != j.
  long long coupling(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    if (j < n()) return form_.item_pairs_[i * n() + j];
    const long long level_j = form_.levels_[j - n()];
    if (i < n()) return form_.item_slack_[i] * level_j;
    return 2 * form_.alpha_ +
           2 * form_.beta_ * form_.levels_[i - n()] * level_j;
  }

  double delta(std::size_t k) const {
    return (x_[k] ? -1.0 : 1.0) * static_cast<double>(field(k));
  }

  /// Flips bit k: the energy moves by its field, then the aggregates, and
  /// for an item every item field by its coupling row (the diagonal entry
  /// of which is zero, leaving r_k as it was).
  void flip(std::size_t k) {
    const bool on = !x_[k];
    energy_ += on ? field(k) : -field(k);
    x_[k] ^= 1;
    if (k >= n()) {
      const long long level = form_.levels_[k - n()];
      slack_ += on ? level : -level;
      hot_ += on ? 1 : -1;
      return;
    }
    const long long* row = form_.item_pairs_.data() + k * n();
    if (on) {
      weight_ += form_.inst_.weights[k];
      for (std::size_t j = 0; j < n(); ++j) r_[j] += row[j];
    } else {
      weight_ -= form_.inst_.weights[k];
      for (std::size_t j = 0; j < n(); ++j) r_[j] -= row[j];
    }
  }

  void note_if_feasible() {
    if (weight_ > form_.inst_.capacity) return;
    const long long one_hot = 1 - hot_;
    const long long match =
        weight_ + form_.sigma_ * slack_ - form_.capacity_offset_;
    const long long profit = form_.alpha_ * one_hot * one_hot +
                             form_.beta_ * match * match - energy_;
    if (profit > best_feasible_profit_) {
      best_feasible_profit_ = profit;
      best_feasible_items_.assign(x_.begin(),
                                  x_.begin() + static_cast<long>(n()));
    }
  }

  const DquboSolver& form_;
  qubo::BitVector x_;
  std::vector<long long> r_;
  long long weight_ = 0;  ///< W
  long long slack_ = 0;   ///< S
  long long hot_ = 0;     ///< Y
  long long energy_ = 0;  ///< E
  long long best_feasible_profit_ = -1;
  qubo::BitVector best_feasible_items_;
};

DquboSolver::DquboSolver(const cop::QkpInstance& inst,
                         const DquboConfig& config)
    : inst_(inst), config_(config) {
  if (config_.fidelity == cim::VmvMode::kCircuit) {
    throw std::invalid_argument(
        "DquboSolver: kCircuit is not supported (the walk computes exact "
        "energies; there is no circuit to fabricate)");
  }
  inst_.validate();
  if (inst_.capacity < 1) {
    throw std::invalid_argument("DquboSolver: capacity < 1");
  }
  const bool one_hot = config_.encoding == SlackEncoding::kOneHot;
  const Wide beta = penalty_weight(config_.penalty.beta, "beta");
  Wide alpha = penalty_weight(config_.penalty.alpha, "alpha");
  if (!one_hot) alpha = 0;  // the binary form has no one-hot penalty
  const std::size_t n = inst_.n;
  const Wide cap = inst_.capacity;

  // The slack levels' count, sum and two largest values.  One-hot levels
  // (1..C) take closed forms and are listed only once the closed-form
  // totals below pass.
  struct {
    Wide count, sum, top, second;
  } levels{cap, cap * (cap + 1) / 2, cap, cap - 1};
  if (!one_hot) {
    levels_ = binary_slack_coefficients(inst_.capacity);
    levels = {static_cast<Wide>(levels_.size()), cap, 0, 0};
    for (const long long level : levels_) {
      levels.second = std::max<Wide>(levels.second,
                                     std::min<Wide>(level, levels.top));
      levels.top = std::max<Wide>(levels.top, level);
    }
  }

  // |offset| + Σ|Q_ij|, family by family: the closed-form totals first, so
  // a capacity far past the bound is refused before anything is sized by
  // it.
  Magnitudes m;
  m.add_total(one_hot ? alpha : times(times(beta, cap), cap));
  Wide weight_sum = 0;
  Wide max_weight = 0;
  for (const long long w : inst_.weights) {
    weight_sum += w;
    max_weight = std::max<Wide>(max_weight, w);
  }
  // Item–slack: 2β w_i ℓ_a.
  m.add_total(times(times(2 * beta, weight_sum), levels.sum));
  m.add_largest(times(times(2 * beta, max_weight), levels.top));
  if (levels.count >= 2) {
    // Slack–slack: 2α + 2β ℓ_a ℓ_b over the pairs a < b.
    m.add_total(times(times(alpha, levels.count), levels.count - 1));
    if (one_hot) {
      // 2β Σ_{a<b} ab = β·C(C−1)(C+1)(3C+2)/12.
      m.add_total(
          times(times(times(times(beta, cap), cap - 1), cap + 1), 3 * cap + 2) /
          12);
    } else {
      Wide below = 0;  // Σ of the levels before this one
      for (const long long level : levels_) {
        m.add_total(times(times(2 * beta, level), below));
        below += level;
      }
    }
    m.add_largest(2 * alpha +
                  times(times(2 * beta, levels.top), levels.second));
  }
  // Slack diagonals: βℓ² − α (one-hot), βℓ(ℓ − 2C) (binary).
  if (one_hot) {
    levels_.reserve(static_cast<std::size_t>(inst_.capacity));
    for (long long level = 1; level <= inst_.capacity; ++level) {
      levels_.push_back(level);
    }
  }
  slack_diag_.reserve(levels_.size());
  for (const long long level : levels_) {
    slack_diag_.push_back(m.add_coefficient(
        one_hot ? times(times(beta, level), level) - alpha
                : -times(times(beta, 2 * cap - level), level)));
  }
  // Item diagonals −p_ii + βw_i² (one-hot), −p_ii + βw_i(w_i − 2C)
  // (binary), and the item pairs −p_ij + 2β w_i w_j.
  item_diag_.resize(n);
  item_slack_.resize(n);
  item_pairs_.assign(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Wide w = inst_.weights[i];
    const Wide excess = one_hot ? w : w - 2 * cap;
    const Wide square = times(times(beta, excess < 0 ? -excess : excess), w);
    item_diag_[i] = m.add_coefficient((excess < 0 ? -square : square) -
                                      inst_.profit(i, i));
    for (std::size_t j = i + 1; j < n; ++j) {
      const long long q = m.add_coefficient(
          times(times(2 * beta, w), inst_.weights[j]) - inst_.profit(i, j));
      item_pairs_[i * n + j] = q;
      item_pairs_[j * n + i] = q;
    }
  }

  // Admitted: every coefficient and total is below 2^52.
  sigma_ = one_hot ? -1 : 1;
  alpha_ = static_cast<long long>(alpha);
  beta_ = static_cast<long long>(beta);
  capacity_offset_ = one_hot ? 0 : inst_.capacity;
  offset_ = one_hot ? alpha_ : beta_ * inst_.capacity * inst_.capacity;
  for (std::size_t i = 0; i < n; ++i) {
    item_slack_[i] = sigma_ * 2 * beta_ * inst_.weights[i];
  }
  max_abs_ = m.max();
}

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
  Problem problem(*this);
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
