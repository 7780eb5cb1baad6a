// The order-statistics sampler behind SA swap proposals: k-th set/cleared
// index queries must match the ascending ones/zeros lists rebuilt from the
// state (that equality is what keeps walks bit-identical to the rebuild
// implementation), under arbitrary interleaved flips that move indices
// between the sampler's two maintained lists.
#include "anneal/index_sampler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace hycim::anneal {
namespace {

std::vector<std::size_t> naive_indices(const std::vector<std::uint8_t>& x,
                                       bool value) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if ((x[i] != 0) == value) out.push_back(i);
  }
  return out;
}

void expect_matches_naive(const IndexSampler& sampler,
                          const std::vector<std::uint8_t>& x) {
  const auto ones = naive_indices(x, true);
  const auto zeros = naive_indices(x, false);
  ASSERT_EQ(sampler.ones(), ones.size());
  ASSERT_EQ(sampler.zeros(), zeros.size());
  for (std::size_t k = 0; k < ones.size(); ++k) {
    EXPECT_EQ(sampler.kth_one(k), ones[k]) << "k=" << k;
  }
  for (std::size_t k = 0; k < zeros.size(); ++k) {
    EXPECT_EQ(sampler.kth_zero(k), zeros[k]) << "k=" << k;
  }
}

TEST(IndexSampler, MatchesAscendingListsAfterReset) {
  util::Rng rng(1);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 100u, 257u}) {
    const auto x = rng.random_bits(n, 0.3);
    IndexSampler sampler;
    sampler.reset(x);
    EXPECT_EQ(sampler.size(), n);
    expect_matches_naive(sampler, x);
  }
}

TEST(IndexSampler, StaysInSyncThroughRandomFlips) {
  util::Rng rng(2);
  auto x = rng.random_bits(150, 0.5);
  IndexSampler sampler;
  sampler.reset(x);
  for (int step = 0; step < 500; ++step) {
    const std::size_t i = rng.index(x.size());
    x[i] ^= 1;
    sampler.flip(i);
    EXPECT_EQ(sampler.test(i), x[i] != 0);
  }
  expect_matches_naive(sampler, x);
}

TEST(IndexSampler, AllOnesAndAllZerosEdges) {
  IndexSampler sampler;
  sampler.reset(std::vector<std::uint8_t>(8, 1));
  EXPECT_EQ(sampler.ones(), 8u);
  EXPECT_EQ(sampler.zeros(), 0u);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(sampler.kth_one(k), k);
  EXPECT_THROW(sampler.kth_zero(0), std::out_of_range);

  sampler.reset(std::vector<std::uint8_t>(8, 0));
  EXPECT_EQ(sampler.ones(), 0u);
  for (std::size_t k = 0; k < 8; ++k) EXPECT_EQ(sampler.kth_zero(k), k);
  EXPECT_THROW(sampler.kth_one(0), std::out_of_range);
}

TEST(IndexSampler, RejectsOutOfRange) {
  IndexSampler sampler;
  sampler.reset(std::vector<std::uint8_t>{1, 0, 1});
  EXPECT_THROW(sampler.flip(3), std::out_of_range);
  EXPECT_THROW(sampler.kth_one(2), std::out_of_range);
  EXPECT_THROW(sampler.kth_zero(1), std::out_of_range);
}

TEST(IndexSampler, ResetDiscardsPreviousState) {
  IndexSampler sampler;
  sampler.reset(std::vector<std::uint8_t>(100, 1));
  sampler.reset(std::vector<std::uint8_t>{0, 1, 0});
  EXPECT_EQ(sampler.size(), 3u);
  EXPECT_EQ(sampler.ones(), 1u);
  EXPECT_EQ(sampler.kth_one(0), 1u);
  EXPECT_EQ(sampler.kth_zero(1), 2u);
}

}  // namespace
}  // namespace hycim::anneal
