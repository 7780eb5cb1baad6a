#include "cim/crossbar/bit_slice.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
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

QuantizedQubo quantize(const qubo::QuboMatrix& q, int max_bits) {
  if (max_bits < 1 || max_bits > 62) {
    throw std::invalid_argument("quantize: max_bits out of range");
  }
  QuantizedQubo out;
  out.n = q.size();
  out.offset = q.offset();
  const auto packed = q.packed();
  out.values.resize(packed.size());
  const double range = static_cast<double>((1LL << max_bits) - 1);

  // One pass stores each value, counts nonzeros, tracks the largest
  // magnitude, and checks that de-scaling gives back the source bits.
  const auto convert = [&](auto&& to_int) {
    const double scale = out.scale;
    long long* values = out.values.data();
    long long max_mag = 1;
    std::size_t nonzeros = 0;
    bool exact = true;
    for (std::size_t k = 0; k < packed.size(); ++k) {
      const long long v = to_int(packed[k]);
      values[k] = v;
      nonzeros += v != 0;
      max_mag = std::max(max_mag, std::llabs(v));
      exact &= std::bit_cast<std::uint64_t>(static_cast<double>(v) * scale) ==
               std::bit_cast<std::uint64_t>(packed[k]);
    }
    out.nonzeros = nonzeros;
    out.exact = exact;
    out.magnitude_bits = 1;
    while ((1LL << out.magnitude_bits) - 1 < max_mag) ++out.magnitude_bits;
  };

  // Exactly-representable integer matrices (the common case for the COP
  // transformations, whose coefficients are integral) convert as they are;
  // the first fractional or out-of-range entry falls back to scaling.
  bool integral = true;
  convert([&](double v) -> long long {
    if (!integral || !(std::abs(v) <= range)) {
      integral = false;
      return 0;
    }
    const auto truncated = static_cast<long long>(v);
    integral = static_cast<double>(truncated) == v;
    return truncated;
  });
  if (!integral) {
    const double max_abs = q.max_abs_coefficient();
    out.scale = max_abs > 0 ? max_abs / range : 1.0;
    convert([&](double v) { return std::llround(v / out.scale); });
  }
  return out;
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
