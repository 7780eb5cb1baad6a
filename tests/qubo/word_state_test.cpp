// The word-packed state and the dense full-row mirror — the two storage
// layouts behind the word-parallel dense kernels: packing round-trips,
// ascending set-bit scans (the ordering guarantee the bit-identity claims
// rest on), and the mirror's exact-copy, int32-or-double storage rule and
// build-once contract on FrozenQubo.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <type_traits>
#include <vector>

#include "qubo/dense_rows.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"
#include "qubo/word_state.hpp"
#include "util/rng.hpp"

namespace hycim::qubo {
namespace {

TEST(WordState, PacksAndUnpacksAcrossWordBoundaries) {
  util::Rng rng(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 200u}) {
    const BitVector bits = rng.random_bits(n, 0.4);
    WordState w(bits);
    ASSERT_EQ(w.size(), n);
    std::size_t ones = 0;
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(w.test(k), bits[k] != 0) << "n=" << n << " k=" << k;
      ones += bits[k];
    }
    EXPECT_EQ(w.count(), ones);
    BitVector out(n, 0);
    w.unpack(out);
    EXPECT_EQ(out, bits);
    // Tail bits beyond n stay zero (whole-word scans need no masking).
    if (n % kWordBits != 0) {
      EXPECT_EQ(w.words().back() >> (n % kWordBits), 0u);
    }
  }
}

TEST(WordState, FlipTogglesExactlyOneBit) {
  WordState w(100);
  w.flip(0);
  w.flip(64);
  w.flip(99);
  EXPECT_TRUE(w.test(0));
  EXPECT_TRUE(w.test(64));
  EXPECT_TRUE(w.test(99));
  EXPECT_EQ(w.count(), 3u);
  w.flip(64);
  EXPECT_FALSE(w.test(64));
  EXPECT_EQ(w.count(), 2u);
}

TEST(WordState, ScansSetBitsAscending) {
  util::Rng rng(7);
  const std::size_t n = 150;
  const BitVector bits = rng.random_bits(n, 0.3);
  const WordState w(bits);
  std::vector<std::size_t> expected;
  for (std::size_t k = 0; k < n; ++k) {
    if (bits[k]) expected.push_back(k);
  }
  std::vector<std::size_t> seen;
  w.for_each_set([&](std::size_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, expected);

  // A scan from a start bit drops exactly the bits below it, order
  // untouched — including starts on and past word boundaries.
  for (const std::size_t first : {0u, 1u, 63u, 64u, 100u, 149u, 150u}) {
    std::vector<std::size_t> tail;
    for (const std::size_t k : expected) {
      if (k >= first) tail.push_back(k);
    }
    seen.clear();
    w.for_each_set_from(first, [&](std::size_t k) { seen.push_back(k); });
    EXPECT_EQ(seen, tail) << "first=" << first;
  }
}

/// Bitwise equality (EXPECT_EQ on doubles lets −0.0 equal +0.0).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

QuboMatrix random_matrix(std::size_t n, double density, bool integral,
                         util::Rng& rng) {
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (!rng.bernoulli(density)) continue;
      q.set(i, j,
            integral ? static_cast<double>(rng.uniform_int(-1000, 1000))
                     : rng.uniform(-3.0, 3.0));
    }
  }
  return q;
}

TEST(DenseRows, MirrorsTheTriangleExactly) {
  util::Rng rng(11);
  const std::size_t n = 20;
  for (const bool integral : {false, true}) {
    SCOPED_TRACE(integral ? "integral" : "fractional");
    const QuboMatrix q = random_matrix(n, 0.5, integral, rng);
    const FrozenQuboPtr frozen = q.freeze();
    const DenseRows& rows = frozen->dense_rows();
    ASSERT_EQ(rows.size(), n);
    EXPECT_EQ(rows.narrow(), integral);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(rows.diagonal(i), q.at(i, i)));
      EXPECT_TRUE(same_bits(rows.at(i, i), 0.0))
          << "diagonal must be zeroed in the rows";
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        // Exact copies, both mirror halves.
        ASSERT_TRUE(same_bits(rows.at(i, j), q.at(i, j))) << i << "," << j;
        ASSERT_TRUE(same_bits(rows.at(j, i), q.at(i, j))) << i << "," << j;
      }
    }
    // visit() hands the kernels the storage itself: int32 exactly when
    // narrow(), and the same entries at() reads.
    rows.visit([&](const auto* mirror) {
      using T = std::remove_cvref_t<decltype(*mirror)>;
      EXPECT_EQ((std::is_same_v<T, std::int32_t>), integral);
      for (std::size_t k = 0; k < n * n; ++k) {
        ASSERT_TRUE(same_bits(static_cast<double>(mirror[k]),
                              rows.at(k / n, k % n)));
      }
    });
  }

  // The storage rule reads the whole matrix, diagonal included: int32 rows
  // only when every coefficient is an integer of magnitude <= 2^31 − 1 and
  // none is −0.0.
  constexpr double kMax = 2147483647.0;  // 2^31 − 1
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    std::size_t i, j;
    double v;
    bool narrow;
  } cases[] = {
      {"0.5", 0, 1, 0.5, false},
      {"-0.0", 1, 2, -0.0, false},
      {"-0.0 on the diagonal", 2, 2, -0.0, false},
      {"2^31", 0, 2, 0x1p31, false},
      {"-2^31", 0, 2, -0x1p31, false},
      {"+inf", 1, 1, inf, false},
      {"-inf", 0, 1, -inf, false},
      {"NaN", 0, 1, std::numeric_limits<double>::quiet_NaN(), false},
      {"2^31 - 1", 0, 2, kMax, true},
      {"-(2^31 - 1)", 1, 2, -kMax, true},
      {"0.5 on the diagonal", 1, 1, 0.5, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    QuboMatrix q(3);
    q.set(0, 0, 3.0);
    q.set(1, 2, -7.0);
    q.set(c.i, c.j, c.v);
    const FrozenQuboPtr frozen = q.freeze();
    const DenseRows& rows = frozen->dense_rows();
    EXPECT_EQ(rows.narrow(), c.narrow);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(same_bits(rows.diagonal(i), q.at(i, i)));
      for (std::size_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        EXPECT_TRUE(same_bits(rows.at(i, j), q.at(i, j))) << i << "," << j;
      }
    }
  }
}

TEST(FrozenQubo, ConcurrentFirstRequestsBuildEachStructureOnce) {
  util::Rng rng(13);
  const std::size_t n = 150;  // several transpose tiles
  // Fractional coefficients get double rows, integral ones int32 rows.
  for (const bool integral : {false, true}) {
    SCOPED_TRACE(integral ? "integral" : "fractional");
    const QuboMatrix q = random_matrix(n, 0.3, integral, rng);
    const FrozenQuboPtr frozen = q.freeze();
    constexpr std::size_t kThreads = 6;
    std::vector<const DenseRows*> rows(kThreads, nullptr);
    std::vector<const NeighborIndex*> index(kThreads, nullptr);
    {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          rows[t] = &frozen->dense_rows();
          index[t] = &frozen->neighbor_index();
        });
      }
      for (auto& thread : threads) thread.join();
    }
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(rows[t], rows[0]);
      EXPECT_EQ(index[t], index[0]);
    }
    EXPECT_EQ(rows[0]->narrow(), integral);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        ASSERT_TRUE(same_bits(rows[0]->at(j, i), q.at(i, j))) << i << "," << j;
      }
    }
  }
}

}  // namespace
}  // namespace hycim::qubo
