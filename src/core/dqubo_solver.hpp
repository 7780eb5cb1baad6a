// The D-QUBO baseline solver (paper Sec. 4.3): penalty-embedded QUBO over
// [x; y] annealed on the same FeFET crossbar substrate, with *no*
// inequality filter — every configuration is admissible to the SA loop,
// and constraint violations only show up as (often insufficient) penalty
// energy.  This is the implementation whose 10.75% success rate Fig. 10
// contrasts with HyCiM.
//
// The walk reads one frozen matrix — the penalty matrix under kIdeal, the
// matrix cim::program picks for it under kQuantized — on the dense kernel
// its fully dense penalty matrix picks, so there is no circuit to
// fabricate: kCircuit is rejected.
#pragma once

#include <cstdint>

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
  /// kIdeal or kQuantized; kCircuit is rejected.
  cim::VmvMode fidelity = cim::VmvMode::kQuantized;
  SlackEncoding encoding = SlackEncoding::kOneHot;
  DquboParams penalty{};  ///< α = β = 2 (paper Sec. 4.2)
  /// Crossbar quantization; 0 = exactly ⌈log2 (Qij)MAX⌉ as the paper sizes it.
  int matrix_bits = 0;
};

/// One D-QUBO annealer bound to a QKP instance.
class DquboSolver {
 public:
  /// Builds the penalty QUBO of `inst`.  Throws std::invalid_argument when
  /// config.fidelity is kCircuit, or when `inst` fails
  /// QkpInstance::validate() (sizes, weights, capacity, an asymmetric
  /// profit matrix), which the lowering checks first.
  DquboSolver(const cop::QkpInstance& inst, const DquboConfig& config);

  /// Runs SA from a full [x; y] assignment of size() bits.
  QkpSolveResult solve(const qubo::BitVector& xy0, std::uint64_t run_seed);

  /// Draws an initial assignment (random items + one-hot slack at a random
  /// level, the kindest admissible start for the penalty form) and solves.
  QkpSolveResult solve_from_random(std::uint64_t seed);

  /// Random initial assignment used by solve_from_random (exposed so the
  /// comparison bench can reuse identical item-bits across solvers).
  qubo::BitVector random_initial(util::Rng& rng) const;

  /// Total variable count (n + C or n + ⌈log2 C⌉).
  std::size_t size() const;

  /// Number of item variables (n).
  std::size_t n_items() const { return inst_.n; }

  /// Largest |Q_ij| of the penalty-embedded matrix (the Fig. 9(a) metric).
  double max_abs_coefficient() const;

  /// Crossbar quantization bits in use (the magnitude bits of the
  /// programmed matrix, in either fidelity).
  int matrix_bits() const { return magnitude_bits_; }

  /// The underlying QUBO matrix (for hardware-cost accounting).
  const qubo::QuboMatrix& matrix() const;

  const cop::QkpInstance& instance() const { return inst_; }

 private:
  class Problem;

  cop::QkpInstance inst_;
  DquboConfig config_;
  qubo::FrozenQuboPtr q_;  ///< the penalty matrix
  /// The matrix every solve walks (q_ itself under kIdeal or when the
  /// quantization is exact); the first solve builds its dense mirror, once.
  qubo::FrozenQuboPtr eval_;
  int magnitude_bits_ = 1;
};

}  // namespace hycim::core
