#include "core/dqubo_onehot.hpp"

#include <span>
#include <stdexcept>

namespace hycim::core {

qubo::BitVector DquboOneHotForm::decode_items(
    std::span<const std::uint8_t> xy) const {
  return qubo::BitVector(xy.begin(), xy.begin() + static_cast<long>(n_items));
}

double DquboOneHotForm::penalty(std::span<const std::uint8_t> xy,
                                const cop::QkpInstance& inst) const {
  long long y_sum = 0;
  long long slack = 0;
  for (long long k = 1; k <= capacity; ++k) {
    if (xy[n_items + static_cast<std::size_t>(k) - 1]) {
      ++y_sum;
      slack += k;
    }
  }
  long long weight = 0;
  for (std::size_t i = 0; i < n_items; ++i) {
    if (xy[i]) weight += inst.weights[i];
  }
  const double one_hot = static_cast<double>(1 - y_sum);
  const double match = static_cast<double>(weight - slack);
  return params.alpha * one_hot * one_hot + params.beta * match * match;
}

DquboOneHotForm to_dqubo_onehot(const cop::QkpInstance& inst,
                                const DquboParams& params) {
  inst.validate();
  if (inst.capacity < 1) {
    throw std::invalid_argument("to_dqubo_onehot: capacity < 1");
  }
  const std::size_t n = inst.n;
  const auto cap = static_cast<std::size_t>(inst.capacity);
  DquboOneHotForm form;
  form.n_items = n;
  form.capacity = inst.capacity;
  form.params = params;
  form.q = qubo::QuboMatrix(n + cap);
  auto& q = form.q;
  const double alpha = params.alpha;
  const double beta = params.beta;

  // f1 = −Σ p_ij x_i x_j + α(1 − Σ_k y_k)² + β(Σ_i w_i x_i − Σ_k k·y_k)²
  // expands to
  //   α − α Σ_k y_k + 2α Σ_{k<l} y_k y_l                      (penalty 1)
  //   + β Σ_i w_i² x_i + 2β Σ_{i<j} w_i w_j x_i x_j
  //   + β Σ_k k² y_k + 2β Σ_{k<l} k·l·y_k y_l
  //   − 2β Σ_i Σ_k w_i·k · x_i y_k                           (penalty 2).
  // Each packed row is written once.  A coefficient is the sum of its
  // terms from +0.0, in the order objective, penalty 1, penalty 2 — so
  // α = 0 or a zero profit still leaves +0.0, never −0.0.
  q.add_offset(alpha);
  for (std::size_t i = 0; i < n; ++i) {
    // Row i: items i..n−1, then the slack levels.  0.0 − p is −p, or +0.0
    // for the pairs with no profit.
    const std::span<double> row = q.row(i);
    const long long* profit = inst.profits.data() + i * n;
    const auto wi = static_cast<double>(inst.weights[i]);
    row[0] = (0.0 - static_cast<double>(profit[i])) + beta * wi * wi;
    for (std::size_t j = i + 1; j < n; ++j) {
      row[j - i] = (0.0 - static_cast<double>(profit[j])) +
                   2.0 * beta * wi * static_cast<double>(inst.weights[j]);
    }
    double* slack = row.data() + (n - i);
    for (std::size_t k = 0; k < cap; ++k) {
      slack[k] = 0.0 + -2.0 * beta * wi * static_cast<double>(k + 1);
    }
  }
  for (std::size_t k = 0; k < cap; ++k) {
    const std::span<double> row = q.row(n + k);
    const auto level_k = static_cast<double>(k + 1);
    row[0] = (0.0 - alpha) + beta * level_k * level_k;
    for (std::size_t l = k + 1; l < cap; ++l) {
      row[l - k] = (0.0 + 2.0 * alpha) +
                   2.0 * beta * level_k * static_cast<double>(l + 1);
    }
  }
  return form;
}

}  // namespace hycim::core
