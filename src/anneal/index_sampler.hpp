// Order-statistics sampler over the bits of a configuration.
//
// A swap proposal needs a uniformly random set bit and a uniformly random
// cleared bit.  The sampler keeps the ascending lists of both and updates
// them on commits: a sample is an array read, and a committed flip moves
// one index to the other list, a binary search and two O(n) memmoves.
// Walks sample far more often than they commit (counted over whole
// e2ebench runs: about 20 swap samples per committed bit on anneal_large,
// 6.9 on paper_sweep's HyCiM walks, 2.7 on its D-QUBO walks), and a dense
// committed flip already streams a row of n doubles.
//
// kth_one(k) is exactly `ones[k]` of the ascending list rebuilt from the
// state (kth_zero(k) is `zeros[k]`), so walks draw the same rng values and
// propose the same swaps bit for bit.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace hycim::anneal {

/// Index sampler: O(1) k-th order statistics and O(n) flips over the
/// set/cleared bit positions of a binary configuration.
class IndexSampler {
 public:
  IndexSampler() = default;

  /// (Re)builds both lists for configuration `x` in O(n).
  void reset(std::span<const std::uint8_t> x);

  /// Number of tracked bits.
  std::size_t size() const { return bits_.size(); }
  /// Number of set bits.
  std::size_t ones() const { return ones_.size(); }
  /// Number of cleared bits.
  std::size_t zeros() const { return zeros_.size(); }
  /// Current value of bit `i`.
  bool test(std::size_t i) const { return bits_[i] != 0; }

  /// Toggles bit `i` in O(n).  Call once per committed flip.
  void flip(std::size_t i);

  /// Index of the k-th smallest set bit (0-based; requires k < ones()).
  /// Equivalent to an ascending ones-index list's `ones[k]`.
  std::size_t kth_one(std::size_t k) const {
    if (k >= ones_.size()) throw std::out_of_range("IndexSampler::kth_one");
    return ones_[k];
  }

  /// Index of the k-th smallest cleared bit (0-based; requires k < zeros()).
  std::size_t kth_zero(std::size_t k) const {
    if (k >= zeros_.size()) throw std::out_of_range("IndexSampler::kth_zero");
    return zeros_[k];
  }

 private:
  // Ascending, partitioning 0..n-1, reserved to n (a flip never
  // reallocates); 32-bit entries halve the memmoves.
  std::vector<std::uint32_t> ones_;
  std::vector<std::uint32_t> zeros_;
  std::vector<std::uint8_t> bits_;
};

}  // namespace hycim::anneal
