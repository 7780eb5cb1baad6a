// Fixed-point quantization and bit-plane slicing of QUBO matrices.
//
// The crossbar stores 1 bit per 1FeFET1R cell (paper Fig. 6(a)): an M-bit
// matrix element is spread over M bit planes, and negative coefficients are
// held in a separate plane set whose digitized counts are subtracted — the
// standard CiM signed-weight arrangement.  Quantization precision is set by
// the largest matrix element, ⌈log2 (Qij)MAX⌉ bits (paper Sec. 4.2), which
// is what Fig. 9(a) contrasts between D-QUBO (16-25 b) and HyCiM (7 b).
#pragma once

#include <cstdint>
#include <vector>

#include "qubo/qubo_matrix.hpp"

namespace hycim::cim {

/// Integer-quantized QUBO: original(i,j) ≈ value(i,j) * scale.
struct QuantizedQubo {
  std::size_t n = 0;
  std::vector<long long> values;  ///< packed upper triangle, signed
  double scale = 1.0;             ///< de-quantization factor
  int magnitude_bits = 1;         ///< bits needed for max |value|
  /// Every de-scaled value equals its source coefficient bit for bit (an
  /// in-range integral matrix without -0.0 entries): quantization lost
  /// nothing.
  bool exact = false;

  /// Signed quantized coefficient (indices in either order).
  long long at(std::size_t i, std::size_t j) const;
  /// The quantized matrix in original units (values × scale, with the
  /// carried-over offset), frozen.  `source` must be the matrix this was
  /// quantized from: when the quantization is exact it is returned itself,
  /// shared; otherwise one pass writes a fresh matrix.
  qubo::FrozenQuboPtr dequantize(const qubo::FrozenQuboPtr& source) const;
  /// Energy of `x` under the quantized matrix (in original units):
  /// scale * Σ values_ij x_i x_j + offset.
  double energy(std::span<const std::uint8_t> x) const;
  /// The carried-over constant offset (original units).
  double offset = 0.0;
};

/// Quantizes `q` to at most `max_bits` (1..62) magnitude bits; every code
/// lies within ±(2^max_bits − 1).  Matrices whose entries are already
/// integers within range are represented exactly (scale = 1), decided by
/// one measuring pass (qubo::scan_integral); otherwise values are scaled
/// to use the full range.
QuantizedQubo quantize(const qubo::QuboMatrix& q, int max_bits);

/// quantize(q.matrix(), max_bits), deciding from the measurements the
/// freeze pass recorded (q.scan()) instead of scanning again.
QuantizedQubo quantize(const qubo::FrozenQubo& q, int max_bits);

/// Throws std::invalid_argument unless 1 <= max_bits <= 62, the budgets
/// quantize() and program() accept.
void check_max_bits(int max_bits);

/// What a software walk reads once `q` is programmed at `max_bits`: the
/// matrix the crossbar would compute with, in original units, and the
/// magnitude bits its codes take.
struct ProgrammedQubo {
  qubo::FrozenQuboPtr matrix;
  int magnitude_bits = 1;
};

/// Programs `q` at `max_bits` (1..62) magnitude bits: `matrix` is `q`
/// itself when the quantization is exact and quantize(*q, max_bits)
/// dequantized otherwise, with quantize's magnitude_bits.  An integral
/// matrix within the budget and without −0.0 is decided from the freeze
/// pass's record (q->scan()) without reading a coefficient; any other
/// matrix takes one quantize pass, then dequantize.
ProgrammedQubo program(qubo::FrozenQuboPtr q, int max_bits);

/// Extracts bit plane `bit` of the positive (sign=+1) or negative (sign=-1)
/// coefficients: result[i*n + j] = 1 iff bit `bit` of |value(i,j)| is set,
/// the sign matches, and i <= j (lower triangle is all zero, as drawn in
/// Fig. 6(a)).
std::vector<std::uint8_t> bit_plane(const QuantizedQubo& q, int bit, int sign);

}  // namespace hycim::cim
