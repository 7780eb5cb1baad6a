#include "support/knapsack_dp.hpp"

#include <gtest/gtest.h>

namespace hycim::cop {
namespace {

TEST(KnapsackDp, ClassicTextbookInstance) {
  KnapsackInstance inst;
  inst.capacity = 10;
  inst.weights = {5, 4, 6, 3};
  inst.values = {10, 40, 30, 50};
  const auto sol = solve_knapsack_dp(inst);
  EXPECT_EQ(sol.value, 90);  // items 2 (v=40) and 4 (v=50), weight 7
  EXPECT_EQ(sol.x, (BitVector{0, 1, 0, 1}));
  EXPECT_LE(sol.weight, inst.capacity);
}

TEST(KnapsackDp, ZeroCapacityTakesNothing) {
  KnapsackInstance inst;
  inst.capacity = 0;
  inst.weights = {1, 2};
  inst.values = {10, 20};
  const auto sol = solve_knapsack_dp(inst);
  EXPECT_EQ(sol.value, 0);
  EXPECT_EQ(sol.x, (BitVector{0, 0}));
}

TEST(KnapsackDp, AllItemsFit) {
  KnapsackInstance inst;
  inst.capacity = 100;
  inst.weights = {1, 2, 3};
  inst.values = {5, 6, 7};
  const auto sol = solve_knapsack_dp(inst);
  EXPECT_EQ(sol.value, 18);
  EXPECT_EQ(sol.x, (BitVector{1, 1, 1}));
}

TEST(KnapsackDp, MatchesBruteForceOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = generate_knapsack(12, seed, 20, 50, 10);
    const auto sol = solve_knapsack_dp(inst);
    // Exhaustive check.
    long long best = 0;
    BitVector x(12, 0);
    for (std::uint32_t code = 0; code < (1u << 12); ++code) {
      for (std::size_t i = 0; i < 12; ++i) x[i] = (code >> i) & 1u;
      if (inst.feasible(x)) best = std::max(best, inst.total_value(x));
    }
    EXPECT_EQ(sol.value, best) << "seed " << seed;
    EXPECT_TRUE(inst.feasible(sol.x));
    EXPECT_EQ(inst.total_value(sol.x), sol.value);
  }
}

TEST(KnapsackDp, RejectsOversizedTable) {
  KnapsackInstance inst;
  inst.capacity = 2'000'000'000LL;
  inst.weights = {1};
  inst.values = {1};
  EXPECT_THROW(solve_knapsack_dp(inst), std::invalid_argument);
}

TEST(KnapsackGenerator, Deterministic) {
  const auto a = generate_knapsack(20, 9);
  const auto b = generate_knapsack(20, 9);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.capacity, b.capacity);
}

TEST(ToQkp, PreservesObjectiveAndConstraint) {
  const auto kp = generate_knapsack(15, 4);
  const auto qkp = to_qkp(kp);
  EXPECT_EQ(qkp.n, kp.size());
  EXPECT_EQ(qkp.capacity, kp.capacity);
  util::Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = rng.random_bits(15);
    EXPECT_EQ(qkp.total_profit(x), kp.total_value(x));
    EXPECT_EQ(qkp.feasible(x), kp.feasible(x));
  }
}

TEST(ToQkp, OffDiagonalIsZero) {
  const auto qkp = to_qkp(generate_knapsack(8, 5));
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = i + 1; j < 8; ++j) EXPECT_EQ(qkp.profit(i, j), 0);
  }
}

}  // namespace
}  // namespace hycim::cop
