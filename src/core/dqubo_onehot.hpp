// D-QUBO baseline with one-hot slack encoding (paper Fig. 1(b)).
//
// The conventional transformation embeds the inequality Σ w_i x_i ≤ C into
// the objective through an auxiliary one-hot vector ®y ∈ {0,1}^C:
//
//   min f1 = xᵀQx + α(1 − Σ_k y_k)² + β(Σ_i w_i x_i − Σ_k k·y_k)²
//
// The first penalty forces exactly one y_k to be hot; the second forces
// Σ w_i x_i to equal the encoded slack level k ∈ {1..C}.  The QUBO then
// spans n + C variables with coefficients up to ~2βC² — exactly the blowup
// Fig. 9 quantifies.  This module reproduces that construction verbatim
// (α = β = 2, paper Sec. 4.2) so the comparison benches are faithful.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cop/qkp.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// Penalty coefficients of the D-QUBO construction.
struct DquboParams {
  double alpha = 2.0;
  double beta = 2.0;
};

/// The D-QUBO form over the concatenated variables [x; y].
struct DquboOneHotForm {
  qubo::QuboMatrix q;      ///< (n+C)×(n+C), includes the constant offset
  std::size_t n_items = 0; ///< leading variables = original x
  long long capacity = 0;  ///< C = number of auxiliary variables
  DquboParams params;

  /// Total variable count n + C.
  std::size_t size() const { return q.size(); }
  /// Extracts the item-selection part of a full assignment.
  qubo::BitVector decode_items(std::span<const std::uint8_t> xy) const;
  /// Penalty value of an assignment (f1 minus the objective part) — zero
  /// exactly when the one-hot and slack-matching constraints hold.
  double penalty(std::span<const std::uint8_t> xy,
                 const cop::QkpInstance& inst) const;
};

/// Builds the D-QUBO one-hot form of a QKP instance, writing each packed
/// row of the (n+C)×(n+C) matrix once.  Every coefficient is the sum of its
/// objective and penalty terms from +0.0, in the order the expansion lists
/// them — bit-identical to adding each term in its own pass.  Throws
/// std::invalid_argument when `inst` fails QkpInstance::validate() or its
/// capacity is < 1, and std::length_error (from QuboMatrix) if n + C is
/// too large for the packed triangle's size.
DquboOneHotForm to_dqubo_onehot(const cop::QkpInstance& inst,
                                const DquboParams& params = {});

}  // namespace hycim::core
