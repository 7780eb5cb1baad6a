#include "qubo/dense_rows.hpp"

#include <algorithm>
#include <span>

#include "qubo/qubo_matrix.hpp"

namespace hycim::qubo {

namespace {

/// Writes the n·n mirror of `q` into `rows`, each entry once, and its
/// diagonal into `diag`.  T is int32 only when every coefficient converts
/// to it exactly.
template <typename T>
void mirror(const QuboMatrix& q, T* rows, double* diag) {
  const std::size_t n = q.size();
  // Zeroed diagonal plus upper halves: each packed row is already
  // contiguous.
  const std::span<const double> packed = q.packed();
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = packed[idx];
    T* row = rows + i * n;
    row[i] = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      row[j] = static_cast<T>(packed[idx + (j - i)]);
    }
    idx += n - i;
  }
  // Lower halves: the transpose of the upper ones, in square tiles, each
  // mirror row written contiguously from a column of the tile, so the
  // strided reads stay within cache instead of striding the whole mirror.
  constexpr std::size_t kTile = 64;
  for (std::size_t ib = 0; ib < n; ib += kTile) {
    const std::size_t i_end = std::min(ib + kTile, n);
    for (std::size_t jb = ib; jb < n; jb += kTile) {
      for (std::size_t j = jb; j < std::min(jb + kTile, n); ++j) {
        T* row = rows + j * n;
        for (std::size_t i = ib; i < std::min(i_end, j); ++i) {
          row[i] = rows[i * n + j];
        }
      }
    }
  }
}

}  // namespace

DenseRows::DenseRows(const FrozenQubo& q) : n_(q.size()), diag_(n_) {
  const IntegralScan& scan = q.scan();
  if (scan.integral && !scan.negative_zero && scan.max_abs <= kNarrowMax) {
    narrow_ = std::make_unique_for_overwrite<std::int32_t[]>(n_ * n_);
    mirror(q.matrix(), narrow_.get(), diag_.data());
  } else {
    wide_ = std::make_unique_for_overwrite<double[]>(n_ * n_);
    mirror(q.matrix(), wide_.get(), diag_.data());
  }
}

}  // namespace hycim::qubo
