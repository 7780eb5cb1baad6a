// Move generation for simulated annealing.
//
// The SA logic "generates a new input variable configuration" each
// iteration (paper Sec. 3.1); the baseline move is a uniform single-bit
// flip.  A multi-flip generator is provided for the schedule ablation.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace hycim::anneal {

/// One proposed SA move: a single-bit flip or a two-bit swap, expressed as
/// the set of bit indices to toggle.  The whole trial pipeline — filter
/// feasibility, energy delta, commit — is phrased over this one type
/// so each layer implements a move exactly once instead of once per arity.
struct Move {
  std::array<std::size_t, 2> bits{};
  std::size_t arity = 1;

  static Move flip(std::size_t k) { return Move{{k, 0}, 1}; }
  static Move swap(std::size_t i, std::size_t j) { return Move{{i, j}, 2}; }

  bool is_swap() const { return arity == 2; }
  /// The toggled bit indices as a span (size == arity).
  std::span<const std::size_t> indices() const {
    return {bits.data(), arity};
  }
};

/// Uniformly random single-bit flip proposal.
class SingleFlip {
 public:
  /// Returns the index of the bit to flip for an n-bit state.
  std::size_t propose(util::Rng& rng, std::size_t n) const {
    return rng.index(n);
  }
};

/// Proposes k distinct bit flips (k >= 1); used by the ablation bench to
/// study larger neighborhoods.
class MultiFlip {
 public:
  explicit MultiFlip(std::size_t flips) : flips_(flips) {}

  /// Returns `flips` distinct indices in [0, n).
  std::vector<std::size_t> propose(util::Rng& rng, std::size_t n) const;

 private:
  std::size_t flips_;
};

}  // namespace hycim::anneal
