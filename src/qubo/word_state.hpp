// Word-packed binary state: 64 variables per uint64_t, kept alongside the
// byte-per-bit BitVector the rest of the repository speaks.
//
// The packed form is what makes the dense kernels word-parallel: a set-bit
// scan over n variables costs n/64 word loads plus one countr_zero per set
// bit instead of n byte loads and n branches, and the scan order is still
// ascending — so any sum accumulated through for_each_set() performs
// exactly the adds, in exactly the order, of the guarded byte loop it
// replaces.  That ordering guarantee is what lets the word-parallel dense
// kernels claim bit-identity with the scalar ones (see energy.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace hycim::qubo {

/// Bits per storage word.
inline constexpr std::size_t kWordBits = 64;

/// Words needed to hold n bits.
inline constexpr std::size_t word_count(std::size_t n) {
  return (n + kWordBits - 1) / kWordBits;
}

/// A binary assignment packed 64 variables per word.  Bits past size() in
/// the last word are kept zero (class invariant), so whole-word scans need
/// no tail masking.
class WordState {
 public:
  WordState() = default;

  /// All-zero state of n bits.
  explicit WordState(std::size_t n) : n_(n), words_(word_count(n), 0) {}

  /// Packs a byte-per-bit vector (values must be 0/1).
  explicit WordState(std::span<const std::uint8_t> bits) { assign(bits); }

  /// Repacks from a byte-per-bit vector, reusing storage.
  void assign(std::span<const std::uint8_t> bits) {
    n_ = bits.size();
    words_.assign(word_count(n_), 0);
    for (std::size_t k = 0; k < n_; ++k) {
      words_[k / kWordBits] |=
          static_cast<std::uint64_t>(bits[k] & 1u) << (k % kWordBits);
    }
  }

  /// Number of variables.
  std::size_t size() const { return n_; }

  /// Bit k.
  bool test(std::size_t k) const {
    return (words_[k / kWordBits] >> (k % kWordBits)) & 1u;
  }

  /// Flips bit k.
  void flip(std::size_t k) {
    words_[k / kWordBits] ^= std::uint64_t{1} << (k % kWordBits);
  }

  /// Number of set bits (word-parallel popcount).
  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  /// The packed words (ceil(n/64) of them, tail bits zero).
  std::span<const std::uint64_t> words() const { return words_; }

  /// Calls f(k) for every set bit k in ascending order.
  template <typename F>
  void for_each_set(F&& f) const {
    for_each_set_from(0, f);
  }

  /// Calls f(k) for every set bit k >= first in ascending order (the
  /// energy sum's inner walk over the partners j > i of a set bit i).
  template <typename F>
  void for_each_set_from(std::size_t first, F&& f) const {
    for (std::size_t w = first / kWordBits; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      if (w == first / kWordBits) word &= ~std::uint64_t{0} << (first % kWordBits);
      while (word != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(word));
        f(w * kWordBits + b);
        word &= word - 1;
      }
    }
  }

  /// Unpacks into a byte-per-bit span (out.size() must equal size()).
  void unpack(std::span<std::uint8_t> out) const {
    for (std::size_t k = 0; k < n_; ++k) {
      out[k] = static_cast<std::uint8_t>(test(k));
    }
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hycim::qubo
