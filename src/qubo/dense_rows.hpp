// Contiguous full-row mirror of a QUBO matrix — the storage layout behind
// the word-parallel dense kernels.
//
// The packed upper triangle (QuboMatrix::packed()) is the canonical store,
// but its at(i, j) does a triangular index computation per element and a
// dense flip touches one *column* of the triangle — a strided, gather-like
// walk.  DenseRows materializes the symmetric n×n matrix row-major with
// the diagonal zeroed (the diagonal is carried separately): a dense flip
// of bit k then updates all local fields with one contiguous
// phi[j] += sign·row_k[j] pass, which the compiler turns into vector code
// with no index math and no branches.
//
// The mirror's element type is chosen from the matrix the freeze pass
// measured (FrozenQubo::scan()).  When every coefficient is an integer of
// magnitude at most 2^31 − 1 and none is −0.0 — the integral matrices of
// the QKP, MDKP and D-QUBO lowerings, as stored or exactly quantized — the
// rows are int32, half the bytes to write once and to stream on every
// flip.  Otherwise (fractional penalties, an inexact dequantized matrix,
// −0.0, huge or non-finite entries) they are the doubles of the triangle.
// Either way the kernels read a stored value as the exact double of its
// coefficient: int32 to double converts exactly, and an int32 row holds no
// −0.0 to lose.  So kernels reading the mirror do the same adds, in the
// same order, as kernels reading at(i, j), and are bit-identical to them.
// The mirror's storage is not zero-filled first: each of its n² entries
// is written exactly once.  A FrozenQubo builds its mirror once, on first
// request, and every evaluator, replica and solver clone reading that
// matrix shares it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace hycim::qubo {

class FrozenQubo;

/// Symmetric dense mirror of a frozen matrix (diagonal zeroed, carried
/// apart), stored as int32 or as double rows.
class DenseRows {
 public:
  /// Largest magnitude an int32 row holds.
  static constexpr double kNarrowMax = 2147483647.0;  // 2^31 − 1

  /// Mirrors `q` — an O(n²) copy, done once per frozen matrix, one write
  /// per entry — as int32 when q.scan() shows every coefficient is an
  /// integer of magnitude <= kNarrowMax and none is −0.0, else as doubles.
  explicit DenseRows(const FrozenQubo& q);

  /// Number of variables.
  std::size_t size() const { return n_; }

  /// Whether the rows are int32 (otherwise double).
  bool narrow() const { return narrow_ != nullptr; }

  /// Calls f(rows), with the whole mirror as `const std::int32_t*` or
  /// `const double*` — n·n entries, row-major: row k starts at rows + k·n,
  /// rows[k·n + j] is q.at(k, j) for j != k and rows[k·n + k] is 0 — and
  /// returns what f returns.  Kernels are templates over the element type.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    if (narrow_) return f(static_cast<const std::int32_t*>(narrow_.get()));
    return f(static_cast<const double*>(wide_.get()));
  }

  /// Mirror entry (i, j) as a double: q.at(i, j) bit for bit when i != j,
  /// 0 when i == j.
  double at(std::size_t i, std::size_t j) const {
    const std::size_t idx = i * n_ + j;
    return narrow_ ? static_cast<double>(narrow_[idx]) : wide_[idx];
  }

  /// Diagonal coefficient q(k, k).
  double diagonal(std::size_t k) const { return diag_[k]; }

 private:
  std::size_t n_ = 0;
  std::unique_ptr<std::int32_t[]> narrow_;  // n·n, row-major, or null
  std::unique_ptr<double[]> wide_;          // n·n, row-major, or null
  std::vector<double> diag_;
};

}  // namespace hycim::qubo
