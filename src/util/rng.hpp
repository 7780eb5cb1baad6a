// Deterministic, splittable random number generation.
//
// All stochastic components in HyCiM (Monte Carlo sampling, simulated
// annealing, device variation) draw from util::Rng so that every experiment
// is reproducible from a single printed seed.  The generator is
// xoshiro256** seeded via splitmix64, which is platform-independent
// (unlike std::normal_distribution, whose output is implementation
// defined); Gaussian variates use a cached Box–Muller transform.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace hycim::util {

/// splitmix64 step; used for seeding and for cheap stateless hashing.
/// Advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives the seed of child stream `stream_id` from `root_seed`.
///
/// Both inputs pass through the splitmix64 finalizer (a bijection of the
/// 64-bit state), so distinct stream ids are guaranteed to yield distinct
/// seeds for a fixed root, and the child streams are statistically
/// independent of each other and of Rng(root_seed) itself.  Unlike
/// Rng::split() this is stateless: stream r of root s is the same value no
/// matter how many other streams were forked before it — the property the
/// batch runner needs for thread-count-independent reproducibility.
std::uint64_t fork_seed(std::uint64_t root_seed, std::uint64_t stream_id);

class Rng;

/// Convenience: an Rng positioned at the start of stream `stream_id`.
Rng fork_stream(std::uint64_t root_seed, std::uint64_t stream_id);

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// The class is a value type: copying an Rng duplicates its stream.  Use
/// split() to derive statistically independent child streams, e.g. one per
/// device or per SA run, without coupling their consumption order.
class Rng {
 public:
  /// Constructs a generator whose entire stream is a pure function of
  /// `seed`.  Two Rng objects with equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi].  Throws
  /// std::invalid_argument when lo > hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal variate (Box–Muller, cached spare for determinism).
  double gaussian();

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Derives an independent child generator.  The parent advances, so
  /// successive split() calls yield distinct children.
  Rng split();

  /// Fisher–Yates shuffle of `v` in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Random binary vector of length n where each bit is 1 with probability p.
  std::vector<std::uint8_t> random_bits(std::size_t n, double p = 0.5);

  /// Index sampled uniformly from [0, n).  Throws std::invalid_argument
  /// when n == 0.
  std::size_t index(std::size_t n);

 private:
  /// Uniform offset in [0, span).  Requires span > 0.
  std::uint64_t below(std::uint64_t span);

  std::array<std::uint64_t, 4> state_{};
  double spare_gaussian_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace hycim::util
