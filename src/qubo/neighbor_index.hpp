// Sparsity structure of a QUBO matrix: what the sparse per-flip kernel walks.
//
// The paper's benchmark suites are mostly zeros: the CNAM-style QKP
// generator (Sec. 4) populates p_ij with probability density_percent, so a
// density-25 instance has ~75% structural zeros, and max-cut / coloring /
// bin-packing QUBOs are sparser still.  A dense IncrementalEvaluator flip
// walks a full row even though the skipped terms are exact zeros.
// NeighborIndex is the CSR-style adjacency that keys those updates to the
// coupling *degree* instead of n — the same structure the ferroelectric
// CiM annealer literature exploits (arXiv:2309.13853).
//
// Which kernel runs is a property of the programmed matrix, decided once
// at the freeze: FrozenQubo::kernel() picks the sparse kernel at or below
// kSparseDensityThreshold (qubo_matrix.hpp), and there is no override.  A
// FrozenQubo builds its index once, on first request, and every evaluator
// and solver clone reading that matrix shares it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo_matrix.hpp"

namespace hycim::qubo {

/// CSR adjacency over the structural nonzeros of a QuboMatrix.
///
/// For every variable k it stores the sorted list of coupled partners
/// j != k with q(k, j) != 0, together with the coupling value (so the hot
/// loops never re-derive the packed-triangle index), plus the diagonal
/// q(k, k).  Built once in O(n²); every per-flip walk afterwards is
/// O(degree(k)).
class NeighborIndex {
 public:
  /// One coupled partner of a variable.
  struct Link {
    std::uint32_t index;  ///< the partner variable j
    double value;         ///< q(k, j) (== q(j, k) in the upper triangle)
  };

  /// Indexes the structure of `q`.
  explicit NeighborIndex(const QuboMatrix& q);

  /// Number of variables.
  std::size_t size() const { return diag_.size(); }

  /// The coupled partners of variable k, sorted by index ascending.
  std::span<const Link> neighbors(std::size_t k) const {
    return {links_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
  }

  /// Diagonal coefficient q(k, k).
  double diagonal(std::size_t k) const { return diag_[k]; }

  /// Degree of variable k (number of nonzero couplings).
  std::size_t degree(std::size_t k) const {
    return offsets_[k + 1] - offsets_[k];
  }

  /// Total stored links (each coupled pair appears twice, once per side).
  std::size_t link_count() const { return links_.size(); }

  /// Largest degree over all variables.
  std::size_t max_degree() const;

  /// Mean degree (0 for an empty matrix).
  double average_degree() const;

 private:
  std::vector<std::size_t> offsets_;  // size n + 1
  std::vector<Link> links_;
  std::vector<double> diag_;
};

}  // namespace hycim::qubo
