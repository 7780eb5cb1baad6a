// D-QUBO variant with binary (logarithmic) slack encoding — the ablation
// baseline (DESIGN.md A1).
//
// Instead of the paper's one-hot ®y of length C, the slack s ∈ [0, C] is
// encoded with ⌈log2(C+1)⌉ weighted bits, the standard Glover-tutorial
// construction:
//
//   min f = xᵀQx + β(Σ_i w_i x_i + Σ_j c_j z_j − C)²
//
// with c_j = 2^j and the last coefficient clamped so Σ c_j = C (making
// every slack value in [0, C] representable).  This shrinks the auxiliary
// count from C to O(log C) but keeps O(βC²) coefficients — the ablation
// bench quantifies which of the two effects (dimension vs. precision)
// dominates the hardware cost and solve quality.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cop/qkp.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// The D-QUBO form over the concatenated variables [x; z].
struct DquboBinaryForm {
  qubo::QuboMatrix q;              ///< (n+k)×(n+k) with offset
  std::size_t n_items = 0;
  long long capacity = 0;
  double beta = 2.0;
  std::vector<long long> slack_coeffs;  ///< c_j, clamped binary weights

  /// Total variable count n + k.
  std::size_t size() const { return q.size(); }
  /// Extracts the item-selection part of a full assignment.
  qubo::BitVector decode_items(std::span<const std::uint8_t> xz) const;
  /// Encoded slack value Σ c_j z_j of an assignment.
  long long slack_value(std::span<const std::uint8_t> xz) const;
};

/// Builds the binary-slack D-QUBO form of a QKP instance.  Throws
/// std::invalid_argument when `inst` fails QkpInstance::validate() or its
/// capacity is < 1.
DquboBinaryForm to_dqubo_binary(const cop::QkpInstance& inst,
                                double beta = 2.0);

/// The clamped binary coefficients covering exactly [0, capacity].
std::vector<long long> binary_slack_coefficients(long long capacity);

}  // namespace hycim::core
