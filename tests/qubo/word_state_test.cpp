// The word-packed state and the dense full-row mirror — the two storage
// layouts behind the word-parallel dense kernels: packing round-trips,
// ascending set-bit scans (the ordering guarantee the bit-identity claims
// rest on), and the mirror's exact-copy and build-once contract on
// FrozenQubo.
#include <gtest/gtest.h>

#include <thread>
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

TEST(DenseRows, MirrorsTheTriangleExactly) {
  util::Rng rng(11);
  const std::size_t n = 20;
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (rng.bernoulli(0.5)) q.set(i, j, rng.uniform(-3.0, 3.0));
    }
  }
  const DenseRows rows(q);
  ASSERT_EQ(rows.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rows.diagonal(i), q.at(i, i));
    EXPECT_EQ(rows.row(i)[i], 0.0) << "diagonal must be zeroed in the rows";
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      // Exact copies, both mirror halves.
      ASSERT_EQ(rows.row(i)[j], q.at(i, j)) << i << "," << j;
      ASSERT_EQ(rows.row(j)[i], q.at(i, j)) << i << "," << j;
    }
  }
}

TEST(FrozenQubo, ConcurrentFirstRequestsBuildEachStructureOnce) {
  util::Rng rng(13);
  const std::size_t n = 150;  // several transpose tiles
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      if (rng.bernoulli(0.3)) q.set(i, j, rng.uniform(-3.0, 3.0));
    }
  }
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
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(rows[0]->row(j)[i], q.at(i, j)) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace hycim::qubo
