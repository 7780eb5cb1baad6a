// QUBO matrix representation (paper Eq. (2): min y = xᵀQx, x ∈ {0,1}ⁿ).
//
// The matrix is stored upper-triangular: entry (i, j) with i <= j holds the
// coefficient of x_i·x_j, and the diagonal holds the linear terms (x² = x for
// binary x).  This matches the crossbar mapping in paper Fig. 6(a), where Q
// is drawn upper-triangular with zeros below the diagonal.  A separate
// constant `offset` tracks additive terms produced by penalty expansions so
// that transformed energies remain comparable to the original objective.
//
// Construction and use are split, the way the FeFET array is programmed
// once and then annealed on many times.  QuboMatrix is the builder: the
// lowering passes add terms with plain stores.  freeze() then produces an
// immutable FrozenQubo, held by std::shared_ptr<const>: it measures the
// matrix once (nonzeros, max |Q_ij|, whether every coefficient is a finite
// integer, whether any is −0.0), picks its per-flip kernel from that
// density, and builds the mirror or neighbor index the kernel reads at
// most once.  Evaluators, engines and solver clones
// share that one object, so a clone copies no O(n²) data, and a write
// after the freeze is impossible by type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hycim::qubo {

class DenseRows;
class FrozenQubo;
class NeighborIndex;

/// Binary variable assignment; x[i] in {0, 1}.
using BitVector = std::vector<std::uint8_t>;

/// A frozen matrix as its readers share it.
using FrozenQuboPtr = std::shared_ptr<const FrozenQubo>;

/// The per-flip kernel that walks a frozen matrix: kDense streams a full
/// mirror row (DenseRows), kSparse only the row's nonzeros (NeighborIndex).
/// The two are bit-identical (the sparse kernel skips only exact zeros), so
/// the choice changes cost, never results.  FrozenQubo::kernel() makes it
/// once per matrix, from the freeze pass's density.
enum class Kernel {
  kDense,
  kSparse,
};

/// Matrices with at most this fraction of structurally nonzero upper-
/// triangle entries run the sparse kernel.  Chosen between the paper's
/// density-25 suites (clear sparse win: ~4x fewer terms per flip) and
/// density-50 (CSR indirection roughly cancels the skipped zeros).
inline constexpr double kSparseDensityThreshold = 0.4;

/// Human-readable kernel name ("dense" / "sparse") for result structs and
/// bench JSON.
const char* kernel_name(Kernel kernel);

/// Bits needed to represent a magnitude: the smallest b >= 1 with
/// 2^b − 1 >= max_abs (paper Sec. 4.2's ⌈log2 (Qij)MAX⌉, exact at powers of
/// two: a magnitude of 4 needs 3 bits).
int magnitude_bits(double max_abs);

/// What one pass over a matrix's coefficients measures: enough to decide
/// whether the crossbar can store them as they are (integer codes, paper
/// Sec. 4.2) and whether the dense mirror can hold them as int32.
struct IntegralScan {
  std::size_t nonzeros = 0;    ///< entries != 0 (−0.0 counts as zero)
  double max_abs = 0.0;        ///< largest |v|; NaN entries are skipped
  bool integral = true;        ///< every entry a finite integer
  bool negative_zero = false;  ///< some entry is −0.0
};

/// Measures `values` in one pass.
IntegralScan scan_integral(std::span<const double> values);

/// Dense upper-triangular QUBO matrix with an additive constant offset —
/// the builder.  Writes are single stores; freeze() hands the finished
/// matrix to its readers.
class QuboMatrix {
 public:
  QuboMatrix() = default;

  /// Creates an n×n all-zero QUBO.  Throws std::length_error when the
  /// packed triangle's n(n+1)/2 entries do not fit in std::size_t.
  explicit QuboMatrix(std::size_t n);

  /// Number of binary variables.
  std::size_t size() const { return n_; }

  /// Coefficient of x_i·x_j.  Accepts indices in either order; reads below
  /// the diagonal are transparently mapped to the stored upper triangle.
  double at(std::size_t i, std::size_t j) const { return values_[index(i, j)]; }

  /// Sets the coefficient of x_i·x_j (indices in either order).
  void set(std::size_t i, std::size_t j, double v) { values_[index(i, j)] = v; }

  /// Adds `v` to the coefficient of x_i·x_j (indices in either order).
  void add(std::size_t i, std::size_t j, double v) { values_[index(i, j)] += v; }

  /// Additive constant carried alongside xᵀQx (from penalty expansions).
  double offset() const { return offset_; }
  /// Replaces the additive constant.
  void set_offset(double v) { offset_ = v; }
  /// Adds to the additive constant.
  void add_offset(double v) { offset_ += v; }

  /// Energy xᵀQx + offset for a full assignment.  x.size() must equal size().
  double energy(std::span<const std::uint8_t> x) const;

  /// Energy change caused by flipping bit k of x (before the flip).
  /// Equivalent to energy(x with bit k flipped) - energy(x), in O(n).
  double delta_energy(std::span<const std::uint8_t> x, std::size_t k) const;

  /// Largest |Q_ij| over all stored entries (0 for an empty matrix), by an
  /// O(n²) scan.  Determines the crossbar quantization precision (paper
  /// Sec. 4.2).
  double max_abs_coefficient() const;

  /// magnitude_bits(max_abs_coefficient()).
  int quantization_bits() const { return magnitude_bits(max_abs_coefficient()); }

  /// Direct access to the packed upper-triangular storage
  /// (row-major: (0,0),(0,1),...,(0,n-1),(1,1),...).  For the crossbar mapper.
  std::span<const double> packed() const { return values_; }

  /// Writable view of packed row i: row(i)[t] is the coefficient of
  /// x_i·x_(i+t), for t < size() − i.  Lets a lowering pass write each row
  /// once, with no per-entry index computation.
  std::span<double> row(std::size_t i) {
    return {values_.data() + index(i, i), n_ - i};
  }

  /// The finished matrix, frozen for sharing: a copy of this builder, or
  /// (on an rvalue) its storage moved without a copy.
  FrozenQuboPtr freeze() const&;
  FrozenQuboPtr freeze() &&;

 private:
  std::size_t index(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    if (j >= n_) throw std::out_of_range("QuboMatrix index");
    // Row-major packed upper triangle: row i starts after i full rows whose
    // lengths are n, n-1, ..., n-i+1.
    return i * n_ - i * (i - 1) / 2 + (j - i);
  }

  std::size_t n_ = 0;
  std::vector<double> values_;  // packed upper triangle
  double offset_ = 0.0;
};

/// An immutable QUBO matrix and what its readers derive from it.
///
/// One pass at the freeze (scan_integral) measures the nonzero count, max
/// |Q_ij|, whether every coefficient is a finite integer and whether any
/// is −0.0 — what the crossbar mapper needs to know whether it can store
/// the values as they are, and the mirror whether it can narrow them.
/// The density that pass yields picks the matrix's per-flip kernel, once:
/// kernel().  The full-row mirror (dense_rows.hpp) and the neighbor index
/// (neighbor_index.hpp) are each built at most once, on first request —
/// only the one the kernel in use reads ever exists — and concurrent first
/// requests are safe: one thread builds, the others wait for it.
class FrozenQubo {
 public:
  /// Freezes `q`, measuring it in one pass.
  explicit FrozenQubo(QuboMatrix q);
  ~FrozenQubo();

  /// The frozen coefficients (at(), packed(), offset(), ...).
  const QuboMatrix& matrix() const { return q_; }

  /// Number of binary variables.
  std::size_t size() const { return q_.size(); }

  /// Energy xᵀQx + offset.
  double energy(std::span<const std::uint8_t> x) const { return q_.energy(x); }

  /// The freeze pass's measurements.
  const IntegralScan& scan() const { return scan_; }

  /// Number of structurally nonzero entries in the upper triangle.
  std::size_t nonzeros() const { return scan_.nonzeros; }

  /// Fraction of structurally nonzero upper-triangle entries, in [0, 1]
  /// (0 for an empty matrix).  This is the quantity the paper's benchmark
  /// generators control: a CNAM-style QKP suite at density_percent = 25
  /// yields a matrix with density() ≈ 0.25.
  double density() const;

  /// The per-flip kernel every evaluator of this matrix runs: kSparse when
  /// density() <= kSparseDensityThreshold, kDense otherwise.
  Kernel kernel() const { return kernel_; }

  /// Largest |Q_ij| over all stored entries (0 for an empty matrix).
  double max_abs_coefficient() const { return scan_.max_abs; }

  /// magnitude_bits(max_abs_coefficient()).
  int quantization_bits() const { return magnitude_bits(scan_.max_abs); }

  /// The contiguous full-row mirror behind the word-parallel dense
  /// kernels, built on first call.
  const DenseRows& dense_rows() const;

  /// The CSR adjacency behind the sparse kernels, built on first call.
  const NeighborIndex& neighbor_index() const;

 private:
  QuboMatrix q_;
  IntegralScan scan_;
  Kernel kernel_;
  mutable std::once_flag rows_once_;
  mutable std::unique_ptr<const DenseRows> rows_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<const NeighborIndex> index_;
};

}  // namespace hycim::qubo
