// The equality filter is an InequalityFilter built with Relation::kEqual:
// a window comparator around the replica ML that accepts Σwx == C only.

#include "cim/filter/inequality_filter.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

constexpr Relation kEq = Relation::kEqual;

InequalityFilterParams ideal_params(std::uint64_t seed = 1) {
  InequalityFilterParams p;
  p.variation = device::ideal_variation();
  p.comparator.sigma_offset = 0.0;
  p.comparator.sigma_noise = 0.0;
  p.fab_seed = seed;
  return p;
}

TEST(EqualityFilter, AcceptsExactTarget) {
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9, kEq);
  // 7 + 2 = 9 and 4 + ... : {0,1,1} = 9.
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(EqualityFilter, RejectsOneOffEitherSide) {
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9, kEq);
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 0, 1}));  // 6
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 1, 0}));  // 11
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{0, 0, 0}));  // 0
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 1, 1}));  // 13
}

TEST(EqualityFilter, CardinalityConstraint) {
  // All-ones weights with target k: "select exactly k" in hardware.
  const std::vector<long long> ones(10, 1);
  InequalityFilter filter(ideal_params(2), ones, 4, kEq);
  util::Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const auto x = rng.random_bits(10, rng.uniform(0.2, 0.7));
    int count = 0;
    for (auto b : x) count += b;
    EXPECT_EQ(filter.is_feasible(x), count == 4) << "count " << count;
  }
}

TEST(EqualityFilter, MatchesExactPredicateOnRandomInstances) {
  util::Rng rng(4);
  std::vector<long long> weights(25);
  for (auto& w : weights) w = rng.uniform_int(1, 20);
  InequalityFilter filter(ideal_params(5), weights, 60, kEq);
  for (int trial = 0; trial < 150; ++trial) {
    const auto x = rng.random_bits(25, 0.3);
    EXPECT_EQ(filter.is_feasible(x), filter.exact_feasible(x));
  }
}

TEST(EqualityFilter, ZeroTargetAcceptsOnlyEmpty) {
  InequalityFilter filter(ideal_params(6), {3, 5}, 0, kEq);
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 0}));
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 0}));
}

TEST(EqualityFilter, RejectsBadConfiguration) {
  EXPECT_THROW(InequalityFilter(ideal_params(), {65}, 1, kEq),
               std::invalid_argument);
  EXPECT_THROW(InequalityFilter(ideal_params(), {1}, -1, kEq),
               std::invalid_argument);
  auto p = ideal_params();
  p.margin_units = 1.5;  // window wider than 1 unit would accept C±1
  EXPECT_THROW(InequalityFilter(p, {1, 2}, 2, kEq), std::invalid_argument);
}

TEST(EqualityFilter, NoisyCornerStillSeparatesIntegers) {
  InequalityFilterParams p;  // realistic corners
  p.fab_seed = 7;
  std::vector<long long> weights{5, 9, 13, 4, 8, 2};
  InequalityFilter filter(p, weights, 17, kEq);
  util::Rng rng(8);
  int checked = 0, correct = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const auto x = rng.random_bits(6);
    ++checked;
    if (filter.is_feasible(x) == filter.exact_feasible(x)) ++correct;
  }
  // Small arrays, ±0.5-unit window: expect near-perfect agreement.
  EXPECT_GE(correct, checked - 1);
}

TEST(EqualityFilter, ReprogramAndAgePreserveDecisions) {
  InequalityFilter filter(ideal_params(9), {4, 7, 2}, 9, kEq);
  filter.reprogram();
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 1, 1}));
  filter.age(3.15e7);  // one year: replica drifts with the working array
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 1, 1}));
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(EqualityFilter, StatsCountDecisions) {
  InequalityFilter filter(ideal_params(), {6, 6}, 6, kEq);
  EXPECT_EQ(filter.relation(), kEq);
  filter.is_feasible(std::vector<std::uint8_t>{1, 0});  // feasible
  filter.is_feasible(std::vector<std::uint8_t>{1, 1});  // above the window
  filter.is_feasible(std::vector<std::uint8_t>{0, 0});  // below the window
  EXPECT_EQ(filter.stats().evaluations, 3u);
  EXPECT_EQ(filter.stats().feasible, 1u);
  EXPECT_EQ(filter.stats().infeasible, 2u);
}

TEST(EqualityFilter, AccessorsConsistent) {
  InequalityFilter filter(ideal_params(10), {4, 7, 2}, 9, kEq);
  EXPECT_EQ(filter.items(), 3u);
  EXPECT_EQ(filter.capacity(), 9);
  EXPECT_GT(filter.margin_voltage(), 0.0);
  EXPECT_GT(filter.replica_voltage(), 0.0);
}

}  // namespace
}  // namespace hycim::cim
