// Sparsity structure of a QUBO matrix, and the kernel dispatch built on it.
//
// The paper's benchmark suites are mostly zeros: the CNAM-style QKP
// generator (Sec. 4) populates p_ij with probability density_percent, so a
// density-25 instance has ~75% structural zeros, and max-cut / coloring /
// bin-packing QUBOs are sparser still.  Every per-flip hot kernel in the
// repository (IncrementalEvaluator local-field updates, circuit-mode VMV
// column deltas) walks a full dense row even though the skipped terms are
// exact zeros.  NeighborIndex is the CSR-style adjacency that keys those
// updates to the coupling *degree* instead of n — the same structure the
// ferroelectric CiM annealer literature exploits (arXiv:2309.13853).
//
// A FrozenQubo builds its index once, on first request, and every
// evaluator, replica batch and solver clone reading that matrix shares it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo_matrix.hpp"

namespace hycim::qubo {

/// Which per-flip kernel a component runs.
///
/// kAuto resolves at fabrication time from the measured matrix density
/// (resolve_kernel below); kDense / kSparse force a kernel regardless of
/// density — the override knob surfaced on HyCimConfig.  The two kernels
/// are bit-identical on the ideal/quantized paths (the sparse kernel skips
/// only exact zeros), so the choice changes cost, never trajectories.
enum class Kernel {
  kAuto,
  kDense,
  kSparse,
};

/// Densities at or below this fraction of structurally nonzero upper-
/// triangle entries resolve kAuto to the sparse kernel.  Chosen between
/// the paper's density-25 suites (clear sparse win: ~4x fewer terms per
/// flip) and density-50 (CSR indirection roughly cancels the skipped
/// zeros).
inline constexpr double kSparseDensityThreshold = 0.4;

/// Resolves a kernel request against a measured density: kAuto picks
/// kSparse iff density <= kSparseDensityThreshold; explicit choices pass
/// through.
Kernel resolve_kernel(Kernel choice, double density);

/// Human-readable kernel name ("auto" / "dense" / "sparse") for result
/// structs and bench JSON.
const char* kernel_name(Kernel kernel);

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
