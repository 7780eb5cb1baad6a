// The inequality-QUBO transformation — the paper's core contribution
// (Sec. 3.2, Eq. (6)).
//
// A COP with an inequality constraint
//
//   max Σ p_ij x_i x_j   s.t.  Σ w_i x_i ≤ C
//
// becomes
//
//   min E = [Σ w_i x_i ≤ C] · xᵀQx,     Q = −P
//
// i.e. the objective is carried by an n-variable QUBO (negated profits, so
// E ≤ 0 on feasible configurations) while the constraint stays *outside*
// the matrix as a logical predicate, evaluated in hardware by the
// inequality filter.  No auxiliary variables, no penalty coefficients, and
// (Qij)MAX stays at max|p_ij| (= 100 for the benchmark suite) instead of
// the O(βC²) of D-QUBO.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cop/qkp.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// The inequality-QUBO form: an unconstrained QUBO objective plus the
/// separated linear inequality ®w·®x ≤ C.
struct InequalityQuboForm {
  qubo::QuboMatrix q;              ///< Q = −P (upper triangular)
  std::vector<long long> weights;  ///< constraint weights ®w
  long long capacity = 0;          ///< constraint bound C

  /// Number of variables (n; identical to the COP's item count).
  std::size_t size() const { return q.size(); }

  /// The separated constraint: true iff ®w·®x ≤ C.
  bool feasible(std::span<const std::uint8_t> x) const;

  /// Eq. (6): E = [feasible] · xᵀQx.  Zero for infeasible x.
  double energy(std::span<const std::uint8_t> x) const;

  /// The QUBO value xᵀQx regardless of feasibility (what the crossbar
  /// computes once the filter has passed the configuration).
  double qubo_value(std::span<const std::uint8_t> x) const {
    return q.energy(x);
  }
};

/// Transforms a QKP instance into inequality-QUBO form (Eq. (5)-(6)):
/// q_ij = −p_ij with each unordered pair mapped once to the upper triangle.
/// Throws std::invalid_argument when `inst` fails QkpInstance::validate().
InequalityQuboForm to_inequality_qubo(const cop::QkpInstance& inst);

/// Recovers the QKP profit of a configuration: −xᵀQx (exact inverse of the
/// transformation on integral instances).
long long profit_from_energy(double qubo_energy);

}  // namespace hycim::core
