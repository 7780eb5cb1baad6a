#include "core/inequality_qubo.hpp"

#include <gtest/gtest.h>

#include "qubo/brute_force.hpp"
#include "support/malformed_qkp.hpp"
#include "util/rng.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance small_instance(std::uint64_t seed, std::size_t n = 12) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 50;
  return cop::generate_qkp(params, seed);
}

TEST(InequalityQubo, EnergyIsNegatedProfit) {
  const auto inst = small_instance(1);
  const auto form = to_inequality_qubo(inst);
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = rng.random_bits(inst.n);
    EXPECT_DOUBLE_EQ(form.qubo_value(x),
                     -static_cast<double>(inst.total_profit(x)));
  }
}

TEST(InequalityQubo, FeasibilityMatchesInstance) {
  const auto inst = small_instance(3);
  const auto form = to_inequality_qubo(inst);
  util::Rng rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = rng.random_bits(inst.n);
    EXPECT_EQ(form.feasible(x), inst.feasible(x));
  }
}

TEST(InequalityQubo, Eq6EnergyIsZeroWhenInfeasible) {
  // E = [Σwx <= C] · xᵀQx (paper Eq. (6)).
  const auto inst = small_instance(5);
  const auto form = to_inequality_qubo(inst);
  util::Rng rng(6);
  int infeasible_seen = 0;
  for (int trial = 0; trial < 200 && infeasible_seen < 10; ++trial) {
    const auto x = rng.random_bits(inst.n, 0.9);
    if (!inst.feasible(x)) {
      ++infeasible_seen;
      EXPECT_DOUBLE_EQ(form.energy(x), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(form.energy(x), form.qubo_value(x));
    }
  }
}

TEST(InequalityQubo, EnergyIsNonPositiveOnFeasible) {
  // The paper notes E <= 0 (profits are non-negative).
  const auto inst = small_instance(7);
  const auto form = to_inequality_qubo(inst);
  util::Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    const auto x = rng.random_bits(inst.n, 0.3);
    EXPECT_LE(form.energy(x), 0.0);
  }
}

TEST(InequalityQubo, DimensionEqualsItemCount) {
  const auto inst = small_instance(9, 20);
  const auto form = to_inequality_qubo(inst);
  EXPECT_EQ(form.size(), 20u);  // no auxiliary variables
}

TEST(InequalityQubo, MaxCoefficientIsMaxProfit) {
  // HyCiM's (Qij)MAX = max p_ij <= 100 -> 7 bits (paper Fig. 9(a)).
  const auto inst = small_instance(10, 40);
  const auto form = to_inequality_qubo(inst);
  long long max_p = 0;
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      max_p = std::max(max_p, inst.profit(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(form.q.max_abs_coefficient(), static_cast<double>(max_p));
  EXPECT_LE(form.q.quantization_bits(), 7);
}

TEST(InequalityQubo, ConstrainedMinimumMatchesExactQkp) {
  // Minimizing xᵀQx over the feasible set == maximizing QKP profit.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = small_instance(seed, 14);
    const auto form = to_inequality_qubo(inst);
    const auto result = qubo::brute_force_minimize(
        form.q,
        [&](std::span<const std::uint8_t> x) { return form.feasible(x); });
    long long best_profit = 0;
    {
      qubo::BitVector x(inst.n, 0);
      for (std::uint32_t code = 0; code < (1u << 14); ++code) {
        for (std::size_t i = 0; i < 14; ++i) x[i] = (code >> i) & 1u;
        if (inst.feasible(x)) {
          best_profit = std::max(best_profit, inst.total_profit(x));
        }
      }
    }
    EXPECT_DOUBLE_EQ(result.best_energy, -static_cast<double>(best_profit))
        << "seed " << seed;
  }
}

TEST(InequalityQubo, RejectsMalformedInstances) {
  for (const auto& [what, inst] : cop::malformed_qkp(small_instance(5))) {
    EXPECT_THROW(to_inequality_qubo(inst), std::invalid_argument) << what;
  }
}

TEST(InequalityQubo, ProfitFromEnergyInverts) {
  EXPECT_EQ(profit_from_energy(-123.0), 123);
  EXPECT_EQ(profit_from_energy(0.0), 0);
}

}  // namespace
}  // namespace hycim::core
