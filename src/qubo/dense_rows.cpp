#include "qubo/dense_rows.hpp"

#include <algorithm>

#include "qubo/qubo_matrix.hpp"

namespace hycim::qubo {

DenseRows::DenseRows(const QuboMatrix& q)
    : n_(q.size()),
      rows_(std::make_unique_for_overwrite<double[]>(n_ * n_)),
      diag_(n_) {
  // Zeroed diagonal plus upper halves: each packed row is already
  // contiguous.  The doubles are copied bit-for-bit.
  const std::span<const double> packed = q.packed();
  double* const rows = rows_.get();
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    diag_[i] = packed[idx];
    rows[i * n_ + i] = 0.0;
    std::copy(packed.begin() + idx + 1, packed.begin() + idx + (n_ - i),
              rows + i * n_ + i + 1);
    idx += n_ - i;
  }
  // Lower halves: the transpose of the upper ones, in square tiles, each
  // mirror row written contiguously from a column of the tile, so the
  // strided reads stay within cache instead of striding the whole mirror.
  constexpr std::size_t kTile = 64;
  for (std::size_t ib = 0; ib < n_; ib += kTile) {
    const std::size_t i_end = std::min(ib + kTile, n_);
    for (std::size_t jb = ib; jb < n_; jb += kTile) {
      for (std::size_t j = jb; j < std::min(jb + kTile, n_); ++j) {
        double* row = rows + j * n_;
        for (std::size_t i = ib; i < std::min(i_end, j); ++i) {
          row[i] = rows[i * n_ + j];
        }
      }
    }
  }
}

}  // namespace hycim::qubo
