// Incremental QUBO energy evaluation.
//
// Simulated annealing proposes single-bit flips; evaluating xᵀQx from
// scratch is O(n²) while the flip delta is O(1) once per-bit local fields
// are maintained.  IncrementalEvaluator keeps, for every bit k,
//
//   phi_k = q_kk + Σ_{i<k} q_ik x_i + Σ_{j>k} q_kj x_j
//
// so the energy change of flipping bit k is (1 − 2 x_k)·phi_k.  Accepting a
// flip updates the other bits' fields — O(n) under the dense kernel, or
// O(degree(k)) under the sparse kernel, which walks the matrix's
// NeighborIndex and touches only true neighbors.  The matrix picks the
// kernel (FrozenQubo::kernel()).  The skipped terms are exact zeros, so
// the two kernels produce bit-identical fields, energies, and deltas;
// sparsity changes cost, never trajectories.  This mirrors the
// digital SA logic that drives the CiM crossbar in paper Fig. 6(b) while
// staying exact.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "qubo/dense_rows.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"
#include "qubo/word_state.hpp"

namespace hycim::qubo {

namespace kernels {

/// The word-parallel dense flip kernel of IncrementalEvaluator: one
/// contiguous branch-free pass phi[j] += sign·row[j] over the mirror row of
/// the flipped bit, int32 or double (DenseRows::visit).  An int32 entry
/// converts to its coefficient's exact double, so either row type adds the
/// same values.  row[k] is zero by DenseRows construction, but phi[k] is
/// saved and restored around the pass so the flipped bit's own field is
/// untouched bit-for-bit (adding ±0.0 could flip a -0.0) — with that, the
/// pass performs exactly the adds of the scalar two-loop kernel it
/// replaces, making it bit-identical while auto-vectorizing cleanly.
template <typename T>
inline void dense_flip(double* phi, const T* row, std::size_t n,
                       std::size_t k, double sign) {
  const double saved = phi[k];
  for (std::size_t j = 0; j < n; ++j) {
    phi[j] += sign * static_cast<double>(row[j]);
  }
  phi[k] = saved;
}

/// The sparse O(degree) flip kernel.
inline void sparse_flip(double* phi, const NeighborIndex& index,
                        std::size_t k, double sign) {
  for (const auto& link : index.neighbors(k)) {
    phi[link.index] += sign * link.value;
  }
}

/// The per-reset rebuild of IncrementalEvaluator: fills phi[0, n) with
/// every bit's local field under the state packed in `words` and returns
/// that state's energy xᵀQx + offset.
///
/// It streams instead of gathering.  Each field starts at its diagonal
/// coefficient, then every set bit j, ascending, adds its row through the
/// flip kernel with sign +1 (the dense pass saves and restores phi[j]; the
/// sparse walk never touches it).  So
/// phi_k receives q_kj for the set bits j != k in ascending order — the
/// adds, in the order, of the per-bit gather it replaces — at O(n·|x|)
/// contiguous work instead of O(n²) scattered reads.  The energy is then
/// summed over the set bits only, in QuboMatrix::energy's order (row i:
/// the diagonal, then partners j > i ascending; the sparse kernel skips
/// the exact zeros).  Both results are bit-identical to the gather and to
/// QuboMatrix::energy.
inline double rebuild(const FrozenQubo& q, Kernel kernel,
                      const WordState& words, double* phi) {
  const std::size_t n = q.size();
  double e = q.matrix().offset();
  if (kernel == Kernel::kSparse) {
    const NeighborIndex& index = q.neighbor_index();
    for (std::size_t k = 0; k < n; ++k) phi[k] = index.diagonal(k);
    words.for_each_set(
        [&](std::size_t j) { sparse_flip(phi, index, j, 1.0); });
    words.for_each_set([&](std::size_t i) {
      e += index.diagonal(i);
      for (const auto& link : index.neighbors(i)) {
        if (link.index > i && words.test(link.index)) e += link.value;
      }
    });
    return e;
  }
  const DenseRows& rows = q.dense_rows();
  for (std::size_t k = 0; k < n; ++k) phi[k] = rows.diagonal(k);
  return rows.visit([&](const auto* mirror) {
    words.for_each_set(
        [&](std::size_t j) { dense_flip(phi, mirror + j * n, n, j, 1.0); });
    words.for_each_set([&](std::size_t i) {
      const auto* row = mirror + i * n;
      e += rows.diagonal(i);
      words.for_each_set_from(
          i + 1, [&](std::size_t j) { e += static_cast<double>(row[j]); });
    });
    return e;
  });
}

}  // namespace kernels

/// Tracks the energy of an evolving assignment under a fixed QUBO matrix.
class IncrementalEvaluator {
 public:
  /// Shares `q` and initializes the state to `x0`.  Runs q->kernel():
  /// kDense streams q->dense_rows(), kSparse walks q->neighbor_index()
  /// (either built once per frozen matrix and shared by every evaluator
  /// reading it).
  IncrementalEvaluator(FrozenQuboPtr q, BitVector x0);

  /// Runs `kernel` instead of q->kernel(): the seam through which the
  /// kernel-identity tests and the micro-benchmarks set the two kernels
  /// side by side on one matrix.
  IncrementalEvaluator(FrozenQuboPtr q, BitVector x0, Kernel kernel);

  /// Current assignment.
  const BitVector& state() const { return x_; }

  /// Current energy xᵀQx + offset.
  double energy() const { return energy_; }

  /// The kernel this evaluator runs.
  Kernel kernel() const { return kernel_; }

  /// Energy change if bit k were flipped (state unchanged).  O(1), and
  /// inline: every proposal a walk evaluates makes this read.
  double delta(std::size_t k) const {
    assert(k < x_.size());
    return (x_[k] ? -1.0 : 1.0) * phi_[k];
  }

  /// Energy change if bits i and j (i != j) were both flipped.  O(1):
  /// delta(i) + delta(j) + q_ij·(1−2x_i)(1−2x_j), the coupling correction
  /// accounting for the joint flip.  Used for swap moves in SA.
  double delta_pair(std::size_t i, std::size_t j) const {
    assert(i != j);
    const double si = x_[i] ? -1.0 : 1.0;
    const double sj = x_[j] ? -1.0 : 1.0;
    // The mirror reads as the exact same double as at(i, j) (i != j here),
    // so reading it skips the triangle index math without changing a bit.
    const double q_ij = rows_ ? rows_->at(i, j) : q_->matrix().at(i, j);
    return delta(i) + delta(j) + si * sj * q_ij;
  }

  /// Flips bit k, updating energy and all local fields.  O(n) dense,
  /// O(degree(k)) sparse.
  void flip(std::size_t k);

  /// Flips bits i and j (i != j).  Two flips.
  void flip_pair(std::size_t i, std::size_t j);

  /// Replaces the whole assignment and recomputes the fields and energy
  /// (kernels::rebuild): O(n·|x|) dense, O(n + Σ degree) sparse.
  void reset(BitVector x0);

  /// Recomputed-from-scratch energy of the current state (for testing).
  double recompute() const;

 private:
  FrozenQuboPtr q_;
  Kernel kernel_ = Kernel::kDense;
  /// The structure the kernel walks, owned by *q_ (the other one is null).
  const NeighborIndex* index_ = nullptr;
  const DenseRows* rows_ = nullptr;
  BitVector x_;
  /// Reset-time scratch: x_ packed for the word-parallel rebuild scans,
  /// repacked by every reset() and not kept up to date by flips.
  WordState words_;
  std::vector<double> phi_;
  double energy_ = 0.0;
};

}  // namespace hycim::qubo
