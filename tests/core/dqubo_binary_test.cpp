#include "core/dqubo_binary.hpp"

#include <gtest/gtest.h>

#include <set>

#include "qubo/brute_force.hpp"
#include "support/malformed_qkp.hpp"
#include "util/rng.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance tiny_instance(std::uint64_t seed, long long cap) {
  cop::QkpGeneratorParams params;
  params.n = 5;
  params.weight_max = 6;
  params.capacity_min = 5;
  auto inst = cop::generate_qkp(params, seed);
  inst.capacity = cap;
  return inst;
}

TEST(BinarySlack, CoefficientsCoverRangeExactly) {
  for (long long cap : {1, 2, 3, 7, 10, 100, 1000, 2536}) {
    const auto coeffs = binary_slack_coefficients(cap);
    // Every value in [0, cap] is representable: subset sums cover the range.
    long long covered = 0;
    for (auto c : coeffs) {
      EXPECT_LE(c, covered + 1);  // gapless growth invariant
      covered += c;
    }
    EXPECT_EQ(covered, cap);
  }
}

TEST(BinarySlack, CountIsLogarithmic) {
  EXPECT_EQ(binary_slack_coefficients(1).size(), 1u);
  EXPECT_LE(binary_slack_coefficients(100).size(), 8u);
  EXPECT_LE(binary_slack_coefficients(2536).size(), 13u);
}

TEST(BinarySlack, RejectsNonPositive) {
  EXPECT_THROW(binary_slack_coefficients(0), std::invalid_argument);
}

TEST(DquboBinary, DimensionIsNPlusLogC) {
  const auto inst = tiny_instance(1, 100);
  const auto form = to_dqubo_binary(inst);
  EXPECT_LE(form.size(), 5u + 8u);
  EXPECT_GT(form.size(), 5u);
}

TEST(DquboBinary, EnergyEqualsObjectivePlusPenalty) {
  const auto inst = tiny_instance(2, 12);
  const auto form = to_dqubo_binary(inst);
  util::Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const auto xz = rng.random_bits(form.size());
    const auto items = form.decode_items(xz);
    long long w = 0;
    for (std::size_t i = 0; i < inst.n; ++i) {
      if (xz[i]) w += inst.weights[i];
    }
    const double gap =
        static_cast<double>(w + form.slack_value(xz) - inst.capacity);
    const double expected = -static_cast<double>(inst.total_profit(items)) +
                            form.beta * gap * gap;
    EXPECT_NEAR(form.q.energy(xz), expected, 1e-6);
  }
}

TEST(DquboBinary, GroundStateSolvesTheQkpWithSufficientPenalty) {
  const auto inst = tiny_instance(4, 9);
  const double strong_beta =
      static_cast<double>(inst.total_profit(qubo::BitVector(inst.n, 1))) + 1;
  const auto form = to_dqubo_binary(inst, strong_beta);
  ASSERT_LE(form.size(), 22u);
  const auto result = qubo::brute_force_minimize(form.q);
  const auto items = form.decode_items(result.best_x);
  EXPECT_TRUE(inst.feasible(items));
  long long best = 0;
  qubo::BitVector x(5, 0);
  for (std::uint32_t code = 0; code < 32; ++code) {
    for (std::size_t i = 0; i < 5; ++i) x[i] = (code >> i) & 1u;
    if (inst.feasible(x)) best = std::max(best, inst.total_profit(x));
  }
  EXPECT_EQ(inst.total_profit(items), best);
}

TEST(DquboBinary, FarFewerVariablesThanOneHot) {
  const auto inst = tiny_instance(5, 1000);
  const auto form = to_dqubo_binary(inst);
  EXPECT_LT(form.size(), 5u + 12u);  // vs 5 + 1000 for one-hot
}

TEST(DquboBinary, RejectsMalformedInstances) {
  for (const auto& [what, inst] : cop::malformed_qkp(tiny_instance(7, 10))) {
    EXPECT_THROW(to_dqubo_binary(inst), std::invalid_argument) << what;
  }
}

TEST(DquboBinary, CoefficientsStillScaleWithCSquared) {
  // The ablation's point: binary slack shrinks the dimension but keeps
  // O(beta C^2) coefficients.
  const auto inst = tiny_instance(6, 1000);
  const auto form = to_dqubo_binary(inst);
  EXPECT_GT(form.q.max_abs_coefficient(), 1e5);
}

}  // namespace
}  // namespace hycim::core
