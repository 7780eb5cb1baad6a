#include "core/exact.hpp"

#include <gtest/gtest.h>

#include "support/knapsack_dp.hpp"

namespace hycim::core {
namespace {

TEST(ExactQkp, EmptyCapacityMeansEmptySolution) {
  cop::QkpInstance inst;
  inst.n = 3;
  inst.capacity = 0;
  inst.weights = {1, 1, 1};
  inst.profits.assign(9, 0);
  inst.set_profit(0, 0, 10);
  const auto result = exact_qkp(inst);
  EXPECT_EQ(result.best_profit, 0);
  EXPECT_EQ(result.feasible_count, 1u);  // only the empty selection
}

TEST(ExactQkp, HandSolvableInstance) {
  // Items: w={4,7,2}, C=9; profits diag {10,6,8}, p02=7, p01=3, p12=2.
  cop::QkpInstance inst;
  inst.n = 3;
  inst.capacity = 9;
  inst.weights = {4, 7, 2};
  inst.profits.assign(9, 0);
  inst.set_profit(0, 0, 10);
  inst.set_profit(1, 1, 6);
  inst.set_profit(2, 2, 8);
  inst.set_profit(0, 1, 3);
  inst.set_profit(0, 2, 7);
  inst.set_profit(1, 2, 2);
  const auto result = exact_qkp(inst);
  // {0, 2}: 10+8+7 = 25 (weight 6), {1,2}: 6+8+2=16 (weight 9).
  EXPECT_EQ(result.best_profit, 25);
  EXPECT_EQ(result.best_x, (qubo::BitVector{1, 0, 1}));
}

TEST(ExactQkp, MatchesKnapsackDpOnLinearInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto kp = cop::generate_knapsack(14, seed, 10, 40, 10);
    const auto qkp = cop::to_qkp(kp);
    const auto dp = cop::solve_knapsack_dp(kp);
    const auto ex = exact_qkp(qkp);
    EXPECT_EQ(ex.best_profit, dp.value) << "seed " << seed;
  }
}

TEST(ExactQkp, ThrowsOnLargeInstances) {
  cop::QkpInstance inst;
  inst.n = 27;
  inst.capacity = 1;
  inst.weights.assign(27, 1);
  inst.profits.assign(27 * 27, 0);
  EXPECT_THROW(exact_qkp(inst), std::invalid_argument);
}

TEST(ExactQkp, FeasibleCountMatchesCombinatorics) {
  // 3 items of weight 1, capacity 2: C(3,0)+C(3,1)+C(3,2) = 7 feasible.
  cop::QkpInstance inst;
  inst.n = 3;
  inst.capacity = 2;
  inst.weights = {1, 1, 1};
  inst.profits.assign(9, 0);
  EXPECT_EQ(exact_qkp(inst).feasible_count, 7u);
}

}  // namespace
}  // namespace hycim::core
