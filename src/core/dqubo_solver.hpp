// The D-QUBO baseline solver (paper Sec. 4.3): penalty-embedded QUBO over
// [x; y] annealed on the same FeFET crossbar substrate, with *no*
// inequality filter — every configuration is admissible to the SA loop,
// and constraint violations only show up as (often insufficient) penalty
// energy.  This is the implementation whose 10.75% success rate Fig. 10
// contrasts with HyCiM.
//
// The walk never builds the (n + C)×(n + C) penalty matrix.  Its energy
// depends on the state only through a few integer aggregates — the
// selected weight W = Σ w_i x_i, the slack-level sum S = Σ ℓ_a y_a and the
// hot-slack count Y = Σ y_a — plus the item-block fields, so every field,
// delta and energy the matrix walk would read is computed from them in
// exact int64 arithmetic: an O(1) trial, an O(n) item commit and an O(1)
// slack commit.  With integral α and β every coefficient is an integer,
// and the constructor admits only forms whose energies stay below 2^53,
// so each value is the matrix walk's double exactly: the two walks are
// bit-identical (core::to_dqubo_onehot / to_dqubo_binary build the matrix
// the tests walk beside this one).  kIdeal and kQuantized walk the same
// exact energies (the paper sizes the crossbar at ⌈log2 (Qij)MAX⌉ bits,
// which stores every coefficient as it is); there is no circuit to
// fabricate, so kCircuit is rejected.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "cim/crossbar/vmv_engine.hpp"
#include "cop/qkp.hpp"
#include "cop/qkp_result.hpp"
#include "core/dqubo_binary.hpp"
#include "core/dqubo_onehot.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::core {

/// D-QUBO reports the same QKP-scored outcome as the HyCiM adapter layer.
using cop::QkpSolveResult;

/// Slack encoding of the D-QUBO construction.
enum class SlackEncoding {
  kOneHot,  ///< paper Fig. 1(b): ®y ∈ {0,1}^C
  kBinary,  ///< Glover log encoding (ablation A1)
};

/// D-QUBO solver configuration.
struct DquboConfig {
  anneal::SaParams sa{};
  /// kIdeal or kQuantized (the same exact energies); kCircuit is rejected.
  cim::VmvMode fidelity = cim::VmvMode::kQuantized;
  SlackEncoding encoding = SlackEncoding::kOneHot;
  /// α = β = 2 (paper Sec. 4.2); both must be non-negative integers.  The
  /// binary encoding has no one-hot penalty and ignores α.
  DquboParams penalty{};
};

/// One D-QUBO annealer bound to a QKP instance.
class DquboSolver {
 public:
  /// Measures the penalty form of `inst`.  Throws std::invalid_argument
  /// when config.fidelity is kCircuit; when `inst` fails
  /// QkpInstance::validate() (sizes, weights, capacity, an asymmetric
  /// profit matrix) or its capacity is < 1; when α or β is negative or not
  /// an integer; or when 2·(|offset| + Σ_{i≤j} |Q_ij|) ≥ 2^53, past which
  /// an energy or field may not be an exact double.
  DquboSolver(const cop::QkpInstance& inst, const DquboConfig& config);

  /// Runs SA from a full [x; y] assignment of size() bits.
  QkpSolveResult solve(const qubo::BitVector& xy0, std::uint64_t run_seed);

  /// Draws an initial assignment (random items + one-hot slack at a random
  /// level, the kindest admissible start for the penalty form) and solves.
  QkpSolveResult solve_from_random(std::uint64_t seed);

  /// Random initial assignment used by solve_from_random (exposed so the
  /// comparison bench can reuse identical item-bits across solvers).
  qubo::BitVector random_initial(util::Rng& rng) const;

  /// Total variable count (n + C or n + ⌈log2 (C + 1)⌉).
  std::size_t size() const { return inst_.n + levels_.size(); }

  /// Number of item variables (n).
  std::size_t n_items() const { return inst_.n; }

  /// Largest |Q_ij| of the penalty-embedded matrix (the Fig. 9(a) metric).
  double max_abs_coefficient() const { return max_abs_; }

  /// Crossbar quantization bits: qubo::magnitude_bits(max_abs_coefficient()),
  /// the paper's exact ⌈log2 (Qij)MAX⌉ sizing.
  int matrix_bits() const { return qubo::magnitude_bits(max_abs_); }

  const cop::QkpInstance& instance() const { return inst_; }

 private:
  class Problem;

  cop::QkpInstance inst_;
  DquboConfig config_;
  // The penalty form by coefficient family, every value exact.  With σ = −1
  // (slack subtracted from the weight) and C₀ = 0 for one-hot, σ = +1,
  // C₀ = C and α = 0 for binary, the energy is
  //   E = −P + α(1 − Y)² + β(W + σS − C₀)²
  // and its coefficients are
  //   item i, item j     q_ij = −p_ij + 2β w_i w_j   (q_ii in item_diag_)
  //   item i, slack a    q_ia = σ2β w_i ℓ_a = item_slack_[i]·ℓ_a
  //   slack a, slack b   q_ab = 2α + 2β ℓ_a ℓ_b      (q_aa in slack_diag_)
  long long sigma_ = -1;
  long long alpha_ = 0;
  long long beta_ = 0;
  long long capacity_offset_ = 0;      ///< C₀
  long long offset_ = 0;               ///< α for one-hot, βC² for binary
  std::vector<long long> levels_;      ///< ℓ_a: a + 1, or the binary weights
  std::vector<long long> item_pairs_;  ///< n×n q_ij, zero diagonal
  std::vector<long long> item_diag_;
  std::vector<long long> item_slack_;
  std::vector<long long> slack_diag_;
  double max_abs_ = 0.0;
};

}  // namespace hycim::core
