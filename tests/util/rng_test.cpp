#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

namespace hycim::util {
namespace {

TEST(Splitmix64, AdvancesStateDeterministically) {
  std::uint64_t s1 = 42, s2 = 42;
  const std::uint64_t first = splitmix64(s1);
  EXPECT_EQ(first, splitmix64(s2));
  EXPECT_EQ(s1, s2);                    // states advance in lockstep
  EXPECT_NE(splitmix64(s1), first);     // consecutive outputs differ
}

TEST(Splitmix64, DifferentSeedsDiffer) {
  std::uint64_t a = 1, b = 2;
  EXPECT_NE(splitmix64(a), splitmix64(b));
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> vals;
  for (int i = 0; i < 32; ++i) vals.insert(r.next_u64());
  EXPECT_GT(vals.size(), 30u);  // not stuck
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(8);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += r.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng r(10);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng r(12);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, UniformIntIsUnbiased) {
  Rng r(13);
  std::array<int, 4> counts{};
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[static_cast<std::size_t>(r.uniform_int(0, 3))]++;
  for (int c : counts) EXPECT_NEAR(c, n / 4, n / 40);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng r(14);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, GaussianMomentsMatch) {
  Rng r(16);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, GaussianShiftScale) {
  Rng r(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(18);
  Rng child = parent.split();
  // Child differs from parent continuation.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (child.next_u64() != parent.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(19), b(19);
  Rng ca = a.split(), cb = b.split();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(20);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(21);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  r.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is ~1/100!
}

TEST(Rng, RandomBitsDensity) {
  Rng r(22);
  const auto bits = r.random_bits(20000, 0.25);
  const auto ones = std::count(bits.begin(), bits.end(), 1);
  EXPECT_NEAR(static_cast<double>(ones) / 20000.0, 0.25, 0.02);
}

TEST(Rng, IndexStaysInRange) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.index(17), 17u);
}

TEST(Rng, IndexOfZeroThrows) {
  // [0, 0) is empty: no index can be drawn from it, in any build type.
  Rng r(24);
  EXPECT_THROW(r.index(0), std::invalid_argument);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng r(25);
  EXPECT_THROW(r.uniform_int(5, 4), std::invalid_argument);
  EXPECT_THROW(r.uniform_int(std::numeric_limits<std::int64_t>::max(),
                             std::numeric_limits<std::int64_t>::min()),
               std::invalid_argument);
}

/// Offset in [0, span) by the two-division rejection sampler, span 0
/// meaning the full 64-bit range: a draw at or above the largest multiple
/// of span is redrawn.  The oracle for uniform_int and index.
std::uint64_t reference_offset(Rng& rng, std::uint64_t span) {
  if (span == 0) return rng.next_u64();
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t r = rng.next_u64();
  while (r >= limit) r = rng.next_u64();
  return r % span;
}

TEST(Rng, UniformIntMatchesTwoDivisionReference) {
  // Narrow spans never reach the rejection loop; at 2^63 + 1 about half
  // of the draws do.  Each range is anchored at both ends of int64, so the
  // widest ones cross zero and span more than INT64_MAX.
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kTwo62 = std::uint64_t{1} << 62;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  const std::uint64_t spans[] = {1,          2,          3,
                                 100,        400,        kTwo32 + 1,
                                 kTwo62 + 1, kTwo63,     kTwo63 + 1,
                                 ~std::uint64_t{0}};
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t span : spans) {
    SCOPED_TRACE("span " + std::to_string(span));
    const auto lo_low = kMin;
    const auto hi_low = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(kMin) + (span - 1));
    const auto lo_high = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(kMax) - (span - 1));
    Rng reference(26), low(26), high(26), indices(26);
    for (int i = 0; i < 100000; ++i) {
      const std::uint64_t offset = reference_offset(reference, span);
      const auto want_low = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(lo_low) + offset);
      const auto want_high = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(lo_high) + offset);
      ASSERT_EQ(low.uniform_int(lo_low, hi_low), want_low) << "draw " << i;
      ASSERT_EQ(high.uniform_int(lo_high, kMax), want_high) << "draw " << i;
      ASSERT_EQ(indices.index(span), offset) << "draw " << i;
    }
    // All four streams consumed the same number of draws.
    EXPECT_EQ(low.next_u64(), reference.next_u64());
    EXPECT_EQ(high.next_u64(), indices.next_u64());
  }
  // The full int64 range is one raw draw.
  Rng full(27), raw(27);
  EXPECT_EQ(full.uniform_int(kMin, kMax),
            static_cast<std::int64_t>(raw.next_u64()));
}

TEST(Fork, SeedsAreDistinctPerStreamId) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    seeds.insert(fork_seed(2024, id));
  }
  EXPECT_EQ(seeds.size(), 10000u);  // bijective in the stream id
}

TEST(Fork, StatelessAndOrderIndependent) {
  // Unlike Rng::split(), forking stream r never depends on which other
  // streams were forked before it — the batch-runner reproducibility
  // contract.
  const std::uint64_t root = 77;
  Rng direct = fork_stream(root, 5);
  fork_stream(root, 0);  // unrelated forks in between
  fork_stream(root, 1);
  Rng again = fork_stream(root, 5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(direct.next_u64(), again.next_u64());
  EXPECT_EQ(fork_seed(root, 5), fork_seed(root, 5));
}

TEST(Fork, StreamsDoNotOverlap) {
  // 64 streams x 512 draws: every value distinct across all streams.  A
  // collision anywhere has probability ~2^-35; any *overlap* of streams
  // (shared suffix) would collide massively and fail deterministically.
  std::set<std::uint64_t> seen;
  std::size_t draws = 0;
  for (std::uint64_t id = 0; id < 64; ++id) {
    Rng stream = fork_stream(99, id);
    for (int i = 0; i < 512; ++i) {
      seen.insert(stream.next_u64());
      ++draws;
    }
  }
  EXPECT_EQ(seen.size(), draws);
}

TEST(Fork, ChildIndependentOfParentStream) {
  // The forked child must not reproduce the root generator's own stream.
  const std::uint64_t root = 31337;
  Rng parent(root);
  Rng child = fork_stream(root, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

}  // namespace
}  // namespace hycim::util
