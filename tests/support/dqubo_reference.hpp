// The D-QUBO one-hot construction term by term: each penalty expansion is
// its own pass of QuboMatrix::add calls over a block of the triangle, in
// the order the derivation writes them down.  A test oracle: the library's
// one-pass core::to_dqubo_onehot must reproduce every coefficient of this
// builder bit for bit.  Header-only so each test target includes it
// directly.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "cop/qkp.hpp"
#include "core/dqubo_onehot.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// The D-QUBO one-hot form of `inst`, built by the term-by-term passes.
/// Throws std::invalid_argument if capacity < 1.
inline DquboOneHotForm to_dqubo_onehot_reference(
    const cop::QkpInstance& inst, const DquboParams& params = {}) {
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

  // Objective: −p_ij on the item block (each unordered pair once).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) q.add(i, j, -static_cast<double>(p));
    }
  }

  // Penalty 1: α(1 − Σ_k y_k)² = α − α Σ_k y_k + 2α Σ_{k<l} y_k y_l.
  q.add_offset(alpha);
  for (std::size_t k = 0; k < cap; ++k) {
    q.add(n + k, n + k, -alpha);
    for (std::size_t l = k + 1; l < cap; ++l) {
      q.add(n + k, n + l, 2.0 * alpha);
    }
  }

  // Penalty 2: β(Σ_i w_i x_i − Σ_k k·y_k)²
  //   = β Σ_i w_i² x_i + 2β Σ_{i<j} w_i w_j x_i x_j
  //   + β Σ_k k² y_k + 2β Σ_{k<l} k·l·y_k y_l
  //   − 2β Σ_i Σ_k w_i·k · x_i y_k.
  for (std::size_t i = 0; i < n; ++i) {
    const auto wi = static_cast<double>(inst.weights[i]);
    q.add(i, i, beta * wi * wi);
    for (std::size_t j = i + 1; j < n; ++j) {
      q.add(i, j, 2.0 * beta * wi * static_cast<double>(inst.weights[j]));
    }
  }
  for (std::size_t k = 0; k < cap; ++k) {
    const auto level_k = static_cast<double>(k + 1);
    q.add(n + k, n + k, beta * level_k * level_k);
    for (std::size_t l = k + 1; l < cap; ++l) {
      q.add(n + k, n + l, 2.0 * beta * level_k * static_cast<double>(l + 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto wi = static_cast<double>(inst.weights[i]);
    for (std::size_t k = 0; k < cap; ++k) {
      q.add(i, n + k, -2.0 * beta * wi * static_cast<double>(k + 1));
    }
  }
  return form;
}

}  // namespace hycim::core
