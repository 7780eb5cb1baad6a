// The problem-generic constrained QUBO — the multi-constraint extension of
// the paper's Eq. (6):
//
//   min E = [ ®w₁·®x ≤ c₁ ] · [ ®w₂·®x ≤ c₂ ] · ... · xᵀQx
//
// This is the single form every COP in the repository lowers to (see the
// to_constrained_form() adapters in src/cop/): the objective is carried by
// an unconstrained QUBO while every linear constraint stays outside the
// matrix as a logical predicate, evaluated in hardware by one filter per
// row of a cim::FilterBank.  Linear *equalities* (one-hot / cardinality
// structure) are the paper Sec. 3.2 "special case": the same filter with a
// window comparator (cim::Relation::kEqual).  A QKP is simply the special
// case of one inequality and no equalities.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cim/filter/filter_bank.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// The left-hand side ®w·®x of a linear constraint for assignment x.
long long constraint_total(const cim::LinearConstraint& c,
                           std::span<const std::uint8_t> x);

/// A QUBO objective plus separated linear constraints: inequalities
/// (®w·®x ≤ c) and equalities (®w·®x = c).  Together they are the form's
/// rows, ≤ rows first — the order the filter bank and the solver's exact
/// totals index them in.
struct ConstrainedQuboForm {
  qubo::QuboMatrix q;
  std::vector<cim::LinearConstraint> constraints;  ///< inequalities (≤)
  std::vector<cim::LinearConstraint> equalities;   ///< equalities (=)

  std::size_t size() const { return q.size(); }
  /// Number of constraint rows (inequalities, then equalities).
  std::size_t rows() const { return constraints.size() + equalities.size(); }
  /// Row r: constraints[r], then equalities[r - constraints.size()].
  const cim::LinearConstraint& row(std::size_t r) const {
    return r < constraints.size() ? constraints[r]
                                  : equalities[r - constraints.size()];
  }
  /// The relation row r decides.
  cim::Relation relation(std::size_t r) const {
    return r < constraints.size() ? cim::Relation::kAtMost
                                  : cim::Relation::kEqual;
  }
  /// True iff every constraint holds.
  bool feasible(std::span<const std::uint8_t> x) const;
  /// Eq. (6) generalized: xᵀQx when feasible, 0 otherwise.
  double energy(std::span<const std::uint8_t> x) const;
  /// The QUBO value xᵀQx regardless of feasibility (what the crossbar
  /// computes once the filters have passed the configuration).
  double qubo_value(std::span<const std::uint8_t> x) const {
    return q.energy(x);
  }
};

}  // namespace hycim::core
