#include "util/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace hycim::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fork_seed(std::uint64_t root_seed, std::uint64_t stream_id) {
  // Whiten the root first so that adjacent roots do not produce related
  // stream families, then inject the stream id and hash again.  Each step is
  // a bijection of the 64-bit state, so (root, id) -> seed never collides
  // for a fixed root.
  std::uint64_t state = root_seed;
  state = splitmix64(state) ^ stream_id;
  return splitmix64(state);
}

Rng fork_stream(std::uint64_t root_seed, std::uint64_t stream_id) {
  return Rng(fork_seed(root_seed, stream_id));
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro256** must not start from the all-zero state; splitmix64 seeding
  // guarantees that with overwhelming probability, and we guard regardless.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  // Modular unsigned arithmetic: exact for every range, even INT64_MIN..MAX.
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - base + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return static_cast<std::int64_t>(base + below(span));
}

std::uint64_t Rng::below(std::uint64_t span) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::uint64_t r = next_u64();
  // Rejection sampling against modulo bias.  The limit (the largest
  // multiple of span) exceeds kMax - span: only draws above that need it.
  if (r > kMax - span) {
    const std::uint64_t limit = kMax - (kMax % span);
    while (r >= limit) r = next_u64();
  }
  return r % span;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::gaussian() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_gaussian_;
  }
  // Box–Muller; u is kept away from zero so log(u) is finite.
  double u = uniform();
  while (u <= 1e-300) u = uniform();
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  const double theta = 2.0 * M_PI * v;
  spare_gaussian_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

Rng Rng::split() { return Rng(next_u64()); }

std::vector<std::uint8_t> Rng::random_bits(std::size_t n, double p) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = bernoulli(p) ? 1 : 0;
  return bits;
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: empty range");
  return static_cast<std::size_t>(below(n));
}

}  // namespace hycim::util
