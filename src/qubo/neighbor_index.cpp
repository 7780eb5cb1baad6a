#include "qubo/neighbor_index.hpp"

#include <algorithm>

namespace hycim::qubo {

NeighborIndex::NeighborIndex(const QuboMatrix& q) {
  const std::size_t n = q.size();
  diag_.resize(n);
  offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) diag_[i] = q.at(i, i);

  // One pass over the packed upper triangle to count degrees (each
  // off-diagonal nonzero contributes to both endpoints), one to fill.
  const std::span<const double> packed = q.packed();
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++idx;  // diagonal
    for (std::size_t j = i + 1; j < n; ++j, ++idx) {
      if (packed[idx] != 0.0) {
        ++offsets_[i + 1];
        ++offsets_[j + 1];
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) offsets_[k + 1] += offsets_[k];

  links_.resize(offsets_[n]);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++idx;  // diagonal
    for (std::size_t j = i + 1; j < n; ++j, ++idx) {
      const double v = packed[idx];
      if (v == 0.0) continue;
      links_[cursor[i]++] = {static_cast<std::uint32_t>(j), v};
      links_[cursor[j]++] = {static_cast<std::uint32_t>(i), v};
    }
  }
  // Row i's partners j > i arrive in ascending order; partners j < i were
  // appended by earlier rows, also ascending — each row is already sorted.
}

std::size_t NeighborIndex::max_degree() const {
  std::size_t m = 0;
  for (std::size_t k = 0; k < size(); ++k) m = std::max(m, degree(k));
  return m;
}

double NeighborIndex::average_degree() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(links_.size()) / static_cast<double>(size());
}

}  // namespace hycim::qubo
