// Contiguous full-row mirror of a QUBO matrix — the storage layout behind
// the word-parallel dense kernels.
//
// The packed upper triangle (QuboMatrix::packed()) is the canonical store,
// but its at(i, j) does a triangular index computation per element and a
// dense flip touches one *column* of the triangle — a strided, gather-like
// walk.  DenseRows materializes the symmetric n×n matrix row-major with
// the diagonal zeroed (the diagonal is carried separately): a dense flip
// of bit k then updates all local fields with one contiguous
// phi[j] += sign·row_k[j] pass, which the compiler turns into fma-friendly
// vector code with no index math and no branches.
//
// Every stored value is the exact double from the packed triangle (copied,
// never recomputed), so kernels reading the mirror are bit-identical to
// kernels reading at(i, j).  The mirror's storage is not zero-filled first:
// each of its n² entries is written exactly once.  A FrozenQubo builds its
// mirror once, on first request, and every evaluator, replica and solver
// clone reading that matrix shares it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace hycim::qubo {

class QuboMatrix;

/// Symmetric dense mirror of a QuboMatrix (diagonal zeroed, carried apart).
class DenseRows {
 public:
  /// Mirrors `q` — an O(n²) copy, done once per frozen matrix, one write
  /// per entry.
  explicit DenseRows(const QuboMatrix& q);

  /// Number of variables.
  std::size_t size() const { return n_; }

  /// Row k of the symmetric mirror: row(k)[j] == q.at(k, j) for j != k,
  /// row(k)[k] == 0.  Contiguous, length size().
  const double* row(std::size_t k) const { return rows_.get() + k * n_; }

  /// Diagonal coefficient q(k, k).
  double diagonal(std::size_t k) const { return diag_[k]; }

  /// The whole mirror (n·n doubles, row-major) for block kernels.
  std::span<const double> rows() const { return {rows_.get(), n_ * n_}; }

 private:
  std::size_t n_ = 0;
  std::unique_ptr<double[]> rows_;  // n·n, row-major
  std::vector<double> diag_;
};

}  // namespace hycim::qubo
