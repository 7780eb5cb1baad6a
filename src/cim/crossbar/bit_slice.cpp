#include "cim/crossbar/bit_slice.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace hycim::cim {

long long QuantizedQubo::at(std::size_t i, std::size_t j) const {
  if (i > j) std::swap(i, j);
  if (j >= n) throw std::out_of_range("QuantizedQubo::at");
  return values[i * n - i * (i - 1) / 2 + (j - i)];
}

qubo::FrozenQuboPtr QuantizedQubo::dequantize(
    const qubo::FrozenQuboPtr& source) const {
  if (exact) return source;
  qubo::QuboMatrix q(n);
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j, ++idx) {
      q.set(i, j, static_cast<double>(values[idx]) * scale);
    }
  }
  q.set_offset(offset);
  return std::move(q).freeze();
}

double QuantizedQubo::energy(std::span<const std::uint8_t> x) const {
  assert(x.size() == n);
  long long acc = 0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!x[i]) {
      idx += n - i;
      continue;
    }
    for (std::size_t j = i; j < n; ++j, ++idx) {
      if (x[j]) acc += values[idx];
    }
  }
  return static_cast<double>(acc) * scale + offset;
}

namespace {

/// What the integral pass needs to know about a matrix, read without
/// converting a value.
struct IntegralScan {
  bool integral = true;   ///< every value an integer of magnitude <= range
  bool negative_zero = false;  ///< some value is −0.0
  std::size_t nonzeros = 0;
  double max_abs = 0.0;   ///< meaningful when integral
};

IntegralScan scan_integral(std::span<const double> packed, double range) {
  // Works on each value's bits, with no branch and no conversion, so the
  // pass streams.  A magnitude is in range iff its bits are at most
  // range's (NaN's and ±inf's lie above every finite magnitude's).  Below
  // 2^52, adding and taking back 2^52 rounds a magnitude to an integer,
  // so it is integral iff that gives back its bits; from 2^52 up every
  // double is an integer.  max_abs is meaningful only when integral.
  constexpr std::uint64_t kMagnitude = 0x7fffffffffffffffULL;
  constexpr std::uint64_t kNegativeZero = 0x8000000000000000ULL;
  constexpr double kTwo52 = 0x1p52;
  const std::uint64_t range_bits = std::bit_cast<std::uint64_t>(range);
  const std::uint64_t two52_bits = std::bit_cast<std::uint64_t>(kTwo52);
  std::uint64_t failed = 0;
  std::uint64_t max_bits = 0;
  IntegralScan scan;
  for (const double v : packed) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    const std::uint64_t mag = bits & kMagnitude;
    const double a = mag < two52_bits ? std::bit_cast<double>(mag) : 0.0;
    failed |= std::bit_cast<std::uint64_t>((a + kTwo52) - kTwo52) ^
              std::bit_cast<std::uint64_t>(a);
    failed |= mag > range_bits;
    scan.negative_zero |= bits == kNegativeZero;
    scan.nonzeros += mag != 0;
    max_bits = mag > max_bits ? mag : max_bits;
  }
  scan.integral = failed == 0;
  scan.max_abs = std::bit_cast<double>(max_bits);
  return scan;
}

/// The smallest b >= 1 with 2^b − 1 >= max_mag (>= 0).
int bits_for(long long max_mag) {
  const auto width = std::bit_width(static_cast<unsigned long long>(max_mag));
  return std::max(1, static_cast<int>(width));
}

/// The passes behind quantize() and measure_quantization(); kStore keeps
/// the values, otherwise nothing is allocated.
template <bool kStore>
QuantizedQubo quantize_passes(const qubo::QuboMatrix& q, int max_bits) {
  if (max_bits < 1 || max_bits > 62) {
    throw std::invalid_argument("quantize: max_bits out of range");
  }
  QuantizedQubo out;
  out.n = q.size();
  out.offset = q.offset();
  const auto packed = q.packed();
  if constexpr (kStore) out.values.resize(packed.size());
  const double range = static_cast<double>((1LL << max_bits) - 1);

  // Exactly-representable integer matrices (the common case for the COP
  // transformations, whose coefficients are integral) convert as they are
  // (scale = 1): every value converts to itself, so de-scaling gives back
  // the source bits except at −0.0, which converts to +0.
  const IntegralScan scan = scan_integral(packed, range);
  if (scan.integral) {
    if constexpr (kStore) {
      for (std::size_t k = 0; k < packed.size(); ++k) {
        out.values[k] = static_cast<long long>(packed[k]);
      }
    }
    out.nonzeros = scan.nonzeros;
    out.exact = !scan.negative_zero;
    out.magnitude_bits = bits_for(static_cast<long long>(scan.max_abs));
    return out;
  }

  // Otherwise the values are scaled to use the full range, in one pass
  // that stores each value, counts nonzeros, tracks the largest magnitude,
  // and checks whether de-scaling happens to give back the source bits.
  const double max_abs = q.max_abs_coefficient();
  out.scale = max_abs > 0 ? max_abs / range : 1.0;
  long long max_mag = 0;
  std::size_t nonzeros = 0;
  bool exact = true;
  for (std::size_t k = 0; k < packed.size(); ++k) {
    const long long v = std::llround(packed[k] / out.scale);
    if constexpr (kStore) out.values[k] = v;
    nonzeros += v != 0;
    max_mag = std::max(max_mag, std::llabs(v));
    exact &= std::bit_cast<std::uint64_t>(static_cast<double>(v) * out.scale) ==
             std::bit_cast<std::uint64_t>(packed[k]);
  }
  out.nonzeros = nonzeros;
  out.exact = exact;
  out.magnitude_bits = bits_for(max_mag);
  return out;
}

}  // namespace

QuantizedQubo quantize(const qubo::QuboMatrix& q, int max_bits) {
  return quantize_passes<true>(q, max_bits);
}

QuantizedQubo measure_quantization(const qubo::QuboMatrix& q, int max_bits) {
  return quantize_passes<false>(q, max_bits);
}

std::vector<std::uint8_t> bit_plane(const QuantizedQubo& q, int bit,
                                    int sign) {
  if (bit < 0 || bit >= q.magnitude_bits) {
    throw std::invalid_argument("bit_plane: bit out of range");
  }
  if (sign != 1 && sign != -1) {
    throw std::invalid_argument("bit_plane: sign must be +/-1");
  }
  std::vector<std::uint8_t> plane(q.n * q.n, 0);
  for (std::size_t i = 0; i < q.n; ++i) {
    for (std::size_t j = i; j < q.n; ++j) {
      const long long v = q.at(i, j);
      if ((sign > 0 && v <= 0) || (sign < 0 && v >= 0)) continue;
      if ((std::llabs(v) >> bit) & 1LL) plane[i * q.n + j] = 1;
    }
  }
  return plane;
}

}  // namespace hycim::cim
