#include "qubo/qubo_matrix.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "qubo/dense_rows.hpp"
#include "qubo/neighbor_index.hpp"

namespace hycim::qubo {

const char* kernel_name(Kernel kernel) {
  return kernel == Kernel::kSparse ? "sparse" : "dense";
}

int magnitude_bits(double max_abs) {
  int bits = 1;
  while (std::ldexp(1.0, bits) - 1.0 < max_abs) ++bits;
  return bits;
}

IntegralScan scan_integral(std::span<const double> values) {
  // Works on each value's bits, with no branch and no conversion, so the
  // pass streams.  A value is finite iff its magnitude's bits lie below
  // +inf's (NaN's lie above).  Below 2^52, adding and taking back 2^52
  // rounds a magnitude to an integer, so it is integral iff that gives
  // back its bits; from 2^52 up every finite double is an integer.  The
  // largest magnitude is taken on the bits too (positive doubles order as
  // their bits do), with NaN's bits read as zero.
  constexpr std::uint64_t kMagnitude = 0x7fffffffffffffffULL;
  constexpr std::uint64_t kNegativeZero = 0x8000000000000000ULL;
  constexpr double kTwo52 = 0x1p52;
  const std::uint64_t inf_bits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
  const std::uint64_t two52_bits = std::bit_cast<std::uint64_t>(kTwo52);
  std::uint64_t failed = 0;
  std::uint64_t max_bits = 0;
  IntegralScan scan;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t mag = bits & kMagnitude;
    const double a = mag < two52_bits ? std::bit_cast<double>(mag) : 0.0;
    failed |= std::bit_cast<std::uint64_t>((a + kTwo52) - kTwo52) ^
              std::bit_cast<std::uint64_t>(a);
    failed |= mag >= inf_bits;
    scan.negative_zero |= bits == kNegativeZero;
    scan.nonzeros += mag != 0;
    const std::uint64_t m = mag <= inf_bits ? mag : 0;
    max_bits = m > max_bits ? m : max_bits;
  }
  scan.integral = failed == 0;
  scan.max_abs = std::bit_cast<double>(max_bits);
  return scan;
}

namespace {

/// n(n+1)/2, the length of the packed triangle; std::length_error when it
/// does not fit in std::size_t (the wrapped product would be a short store
/// that index() then overruns).
std::size_t packed_size(std::size_t n) {
  std::size_t a = n;
  std::size_t b = n + 1;
  if (b == 0) throw std::length_error("QuboMatrix: n(n+1)/2 overflows");
  // Halve the even factor first, so only a product that really overflows
  // is refused.
  if (a % 2 == 0) {
    a /= 2;
  } else {
    b /= 2;
  }
  if (a != 0 && b > std::numeric_limits<std::size_t>::max() / a) {
    throw std::length_error("QuboMatrix: n(n+1)/2 overflows");
  }
  return a * b;
}

}  // namespace

QuboMatrix::QuboMatrix(std::size_t n) : n_(n), values_(packed_size(n), 0.0) {}

double QuboMatrix::energy(std::span<const std::uint8_t> x) const {
  assert(x.size() == n_);
  double e = offset_;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!x[i]) {
      idx += n_ - i;  // skip the whole row
      continue;
    }
    for (std::size_t j = i; j < n_; ++j, ++idx) {
      if (x[j]) e += values_[idx];
    }
  }
  return e;
}

double QuboMatrix::delta_energy(std::span<const std::uint8_t> x,
                                std::size_t k) const {
  assert(x.size() == n_);
  assert(k < n_);
  // dE = (1 - 2 x_k) * (q_kk + sum_{i<k} q_ik x_i + sum_{j>k} q_kj x_j)
  double s = at(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    if (x[i]) s += at(i, k);
  }
  for (std::size_t j = k + 1; j < n_; ++j) {
    if (x[j]) s += at(k, j);
  }
  return (x[k] ? -1.0 : 1.0) * s;
}

double QuboMatrix::max_abs_coefficient() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, std::abs(v));
  return m;
}

FrozenQuboPtr QuboMatrix::freeze() const& {
  return std::make_shared<const FrozenQubo>(*this);
}

FrozenQuboPtr QuboMatrix::freeze() && {
  return std::make_shared<const FrozenQubo>(std::exchange(*this, {}));
}

FrozenQubo::FrozenQubo(QuboMatrix q)
    : q_(std::move(q)),
      scan_(scan_integral(q_.packed())),
      kernel_(density() <= kSparseDensityThreshold ? Kernel::kSparse
                                                   : Kernel::kDense) {}

FrozenQubo::~FrozenQubo() = default;

double FrozenQubo::density() const {
  const std::size_t cells = q_.packed().size();
  return cells == 0 ? 0.0
                    : static_cast<double>(scan_.nonzeros) /
                          static_cast<double>(cells);
}

const DenseRows& FrozenQubo::dense_rows() const {
  std::call_once(rows_once_,
                 [this] { rows_ = std::make_unique<const DenseRows>(*this); });
  return *rows_;
}

const NeighborIndex& FrozenQubo::neighbor_index() const {
  std::call_once(index_once_, [this] {
    index_ = std::make_unique<const NeighborIndex>(q_);
  });
  return *index_;
}

}  // namespace hycim::qubo
