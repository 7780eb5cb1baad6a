#include "core/dqubo_solver.hpp"

#include <gtest/gtest.h>

#include "core/exact.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance small_instance(std::uint64_t seed, std::size_t n = 10,
                                long long cap = 0) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.weight_max = 10;
  params.capacity_min = 8;
  auto inst = cop::generate_qkp(params, seed);
  if (cap > 0) inst.capacity = cap;
  return inst;
}

DquboConfig fast_config(std::size_t iterations = 3000) {
  DquboConfig config;
  config.sa.iterations = iterations;
  config.fidelity = cim::VmvMode::kIdeal;
  return config;
}

TEST(DquboSolver, DimensionIsNPlusC) {
  const auto inst = small_instance(1, 10, 25);
  DquboSolver solver(inst, fast_config());
  EXPECT_EQ(solver.size(), 35u);
  EXPECT_EQ(solver.n_items(), 10u);
}

TEST(DquboSolver, BinaryEncodingShrinksDimension) {
  const auto inst = small_instance(2, 10, 25);
  DquboConfig config = fast_config();
  config.encoding = SlackEncoding::kBinary;
  DquboSolver solver(inst, config);
  EXPECT_LT(solver.size(), 10u + 8u);
}

TEST(DquboSolver, MatrixBitsFollowCoefficients) {
  const auto inst = small_instance(3, 10, 100);
  DquboSolver solver(inst, fast_config());
  // (Qij)MAX ~ 2*beta*C^2 = 4e4 -> around 16 bits (paper Fig. 9(a)).
  EXPECT_GE(solver.matrix_bits(), 14);
  EXPECT_LE(solver.matrix_bits(), 17);
  EXPECT_GT(solver.max_abs_coefficient(), 1e4);
}

TEST(DquboSolver, SolveDecodesItemSelection) {
  const auto inst = small_instance(4, 8, 20);
  DquboSolver solver(inst, fast_config());
  const auto result = solver.solve_from_random(1);
  EXPECT_EQ(result.best_x.size(), inst.n);
  if (result.feasible) {
    EXPECT_EQ(result.profit, inst.total_profit(result.best_x));
  } else {
    EXPECT_EQ(result.profit, 0);
  }
}

TEST(DquboSolver, CanSolveSmallInstancesGivenManyRestarts) {
  const auto inst = small_instance(5, 8, 15);
  const auto truth = exact_qkp(inst);
  // Use a penalty strong enough that feasible decodes are actually optimal
  // for the annealer to find (the paper corner alpha=beta=2 is exercised by
  // the Fig. 10 bench, where its weakness is the result).
  DquboConfig config = fast_config(5000);
  config.penalty.alpha = config.penalty.beta =
      static_cast<double>(inst.total_profit(qubo::BitVector(inst.n, 1))) + 1;
  DquboSolver solver(inst, config);
  long long best = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = solver.solve_from_random(seed);
    best = std::max(best, result.profit);
  }
  // D-QUBO is weak but not totally broken on tiny instances.
  EXPECT_GE(best, truth.best_profit / 2);
}

TEST(DquboSolver, RandomInitialHasOneHotSlack) {
  const auto inst = small_instance(6, 8, 30);
  DquboSolver solver(inst, fast_config());
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto xy = solver.random_initial(rng);
    ASSERT_EQ(xy.size(), solver.size());
    int hot = 0;
    for (std::size_t k = inst.n; k < xy.size(); ++k) hot += xy[k];
    EXPECT_EQ(hot, 1);
  }
}

TEST(DquboSolver, RejectsWrongInitialSize) {
  const auto inst = small_instance(8, 8, 10);
  DquboSolver solver(inst, fast_config());
  EXPECT_THROW(solver.solve(qubo::BitVector(3, 0), 1), std::invalid_argument);
}

TEST(DquboSolver, DeterministicForFixedSeed) {
  const auto inst = small_instance(9, 8, 12);
  DquboSolver solver(inst, fast_config(500));
  const auto a = solver.solve_from_random(42);
  const auto b = solver.solve_from_random(42);
  EXPECT_EQ(a.profit, b.profit);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(DquboSolver, NoInfeasibleRejections) {
  // D-QUBO has no filter: nothing is ever rejected as infeasible.
  const auto inst = small_instance(10, 8, 12);
  DquboSolver solver(inst, fast_config(1000));
  const auto result = solver.solve_from_random(3);
  EXPECT_EQ(result.sa.rejected_infeasible, 0u);
}

TEST(DquboSolver, MatrixAccessorsConsistent) {
  const auto inst = small_instance(11, 6, 15);
  DquboSolver solver(inst, fast_config());
  EXPECT_EQ(solver.matrix().size(), solver.size());
  EXPECT_DOUBLE_EQ(solver.matrix().max_abs_coefficient(),
                   solver.max_abs_coefficient());
}

TEST(DquboSolver, RejectsCircuitFidelity) {
  // The walk reads only the evaluation matrix: a circuit setting would
  // fabricate crossbars nothing reads.
  DquboConfig config = fast_config();
  config.fidelity = cim::VmvMode::kCircuit;
  EXPECT_THROW(DquboSolver(small_instance(13, 6, 15), config),
               std::invalid_argument);
}

TEST(DquboSolver, RejectsAnAsymmetricProfitMatrix) {
  // The tracked marginal sums a profit row where the QUBO reads a column:
  // the two agree only for a symmetric matrix, which the lowering checks.
  auto inst = small_instance(12, 6, 15);
  inst.profits[0 * inst.n + 1] += 1;  // p_01 != p_10
  for (const auto encoding : {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
    DquboConfig config = fast_config();
    config.encoding = encoding;
    EXPECT_THROW(DquboSolver(inst, config), std::invalid_argument);
  }
}

}  // namespace
}  // namespace hycim::core
