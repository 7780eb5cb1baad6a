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

/// The smallest b >= 1 with 2^b − 1 >= max_mag (>= 0).
int bits_for(long long max_mag) {
  const auto width = std::bit_width(static_cast<unsigned long long>(max_mag));
  return std::max(1, static_cast<int>(width));
}

/// Whether an integral matrix measured by `scan` converts to codes as it
/// is (scale = 1) at `max_bits`: an integral magnitude fits max_bits iff
/// it lies below 2^max_bits, a bound a double holds exactly at every
/// budget (2^b − 1 rounds up to 2^b from b = 54).
bool fits_unscaled(const qubo::IntegralScan& scan, int max_bits) {
  return scan.integral && scan.max_abs < std::ldexp(1.0, max_bits);
}

/// quantize(), given the matrix's one-pass measurements.
QuantizedQubo quantize_passes(const qubo::QuboMatrix& q,
                              const qubo::IntegralScan& scan, int max_bits) {
  check_max_bits(max_bits);
  QuantizedQubo out;
  out.n = q.size();
  out.offset = q.offset();
  const auto packed = q.packed();
  out.values.resize(packed.size());

  // Exactly-representable integer matrices (the common case for the COP
  // transformations, whose coefficients are integral) convert as they are
  // (scale = 1): every value converts to itself, so de-scaling gives back
  // the source bits except at −0.0, which converts to +0.
  if (fits_unscaled(scan, max_bits)) {
    for (std::size_t k = 0; k < packed.size(); ++k) {
      out.values[k] = static_cast<long long>(packed[k]);
    }
    out.exact = !scan.negative_zero;
    out.magnitude_bits = bits_for(static_cast<long long>(scan.max_abs));
    return out;
  }

  // Otherwise the values are scaled to use the full range, in one pass
  // that stores each value, tracks the largest magnitude, and checks
  // whether de-scaling happens to give back the source bits.
  // Codes are clamped to ±(2^b − 1): from b = 54 up the double range is
  // 2^b, and the largest coefficient would round to one past the budget.
  const long long max_code = (1LL << max_bits) - 1;
  const double range = static_cast<double>(max_code);
  out.scale = scan.max_abs > 0 ? scan.max_abs / range : 1.0;
  long long max_mag = 0;
  bool exact = true;
  for (std::size_t k = 0; k < packed.size(); ++k) {
    const long long v =
        std::clamp(std::llround(packed[k] / out.scale), -max_code, max_code);
    out.values[k] = v;
    max_mag = std::max(max_mag, std::llabs(v));
    exact &= std::bit_cast<std::uint64_t>(static_cast<double>(v) * out.scale) ==
             std::bit_cast<std::uint64_t>(packed[k]);
  }
  out.exact = exact;
  out.magnitude_bits = bits_for(max_mag);
  return out;
}

}  // namespace

void check_max_bits(int max_bits) {
  if (max_bits < 1 || max_bits > 62) {
    throw std::invalid_argument("quantize: max_bits out of range");
  }
}

QuantizedQubo quantize(const qubo::QuboMatrix& q, int max_bits) {
  return quantize_passes(q, qubo::scan_integral(q.packed()), max_bits);
}

QuantizedQubo quantize(const qubo::FrozenQubo& q, int max_bits) {
  return quantize_passes(q.matrix(), q.scan(), max_bits);
}

ProgrammedQubo program(qubo::FrozenQuboPtr q, int max_bits) {
  check_max_bits(max_bits);
  const qubo::IntegralScan& scan = q->scan();
  if (fits_unscaled(scan, max_bits) && !scan.negative_zero) {
    const int bits = bits_for(static_cast<long long>(scan.max_abs));
    return {std::move(q), bits};
  }
  const QuantizedQubo quantized = quantize(*q, max_bits);
  return {quantized.dequantize(q), quantized.magnitude_bits};
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
