#include "cim/filter/filter_bank.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

InequalityFilterParams ideal_params() {
  InequalityFilterParams p;
  p.variation = device::ideal_variation();
  p.comparator.sigma_offset = 0.0;
  p.comparator.sigma_noise = 0.0;
  return p;
}

FilterBank two_constraint_bank() {
  // w1 = (3, 4, 0, 0) <= 5;  w2 = (0, 0, 2, 6) <= 7.
  std::vector<LinearConstraint> cs(2);
  cs[0].weights = {3, 4, 0, 0};
  cs[0].capacity = 5;
  cs[1].weights = {0, 0, 2, 6};
  cs[1].capacity = 7;
  return FilterBank(ideal_params(), cs, {}, 4);
}

TEST(FilterBank, RejectsEmptyConstraintSet) {
  EXPECT_THROW(FilterBank(ideal_params(), {}, {}, 3), std::invalid_argument);
}

TEST(FilterBank, RejectsWidthMismatch) {
  std::vector<LinearConstraint> cs(1);
  cs[0].weights = {1, 2};
  cs[0].capacity = 3;
  EXPECT_THROW(FilterBank(ideal_params(), cs, {}, 3), std::invalid_argument);
}

TEST(FilterBank, AllConstraintsMustHold) {
  auto bank = two_constraint_bank();
  // Both satisfied.
  EXPECT_TRUE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 1, 0}));
  // First violated (3+4 = 7 > 5).
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0}));
  // Second violated (2+6 = 8 > 7).
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{0, 0, 1, 1}));
  // Both violated.
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 1, 1}));
}

TEST(FilterBank, VerdictsAttributeRejections) {
  auto bank = two_constraint_bank();
  const auto v = bank.verdicts(std::vector<std::uint8_t>{1, 1, 1, 0});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_FALSE(v[0]);  // 7 > 5
  EXPECT_TRUE(v[1]);   // 2 <= 7
}

TEST(FilterBank, ExactFeasibleMatchesHardwareInIdealCorner) {
  auto bank = two_constraint_bank();
  util::Rng rng(3);
  for (int trial = 0; trial < 16; ++trial) {
    const auto x = rng.random_bits(4);
    EXPECT_EQ(bank.is_feasible(x), bank.exact_feasible(x));
  }
}

TEST(FilterBank, EvaluationCountsAccumulate) {
  auto bank = two_constraint_bank();
  bank.is_feasible(std::vector<std::uint8_t>{0, 0, 0, 0});  // both evaluated
  bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0});  // short-circuits
  EXPECT_GE(bank.total_evaluations(), 3u);
  EXPECT_EQ(bank.size(), 2u);
}

TEST(FilterBank, SupportCompressionIgnoresZeroWeightColumns) {
  // Each filter is fabricated over its support only: constraint 2's zeros
  // on the first two columns mean those variables are simply not wired in,
  // so toggling them cannot change its verdict.
  auto bank = two_constraint_bank();
  ASSERT_EQ(bank.support(0).size(), 2u);
  EXPECT_EQ(bank.support(0)[0], 0u);
  EXPECT_EQ(bank.support(0)[1], 1u);
  ASSERT_EQ(bank.support(1).size(), 2u);
  EXPECT_EQ(bank.support(1)[0], 2u);
  EXPECT_EQ(bank.support(1)[1], 3u);
  EXPECT_EQ(bank.filter(1).items(), 2u);
  EXPECT_TRUE(bank.touches(1, 2));
  EXPECT_FALSE(bank.touches(1, 0));
  EXPECT_FALSE(bank.touches(0, 3));

  const auto a = bank.verdicts(std::vector<std::uint8_t>{0, 0, 1, 0});
  const auto b = bank.verdicts(std::vector<std::uint8_t>{1, 1, 1, 0});
  EXPECT_TRUE(a[1]);
  EXPECT_TRUE(b[1]);  // constraint 2 unchanged by columns it is blind to
}

TEST(FilterBank, ReprogramKeepsDecisionsInIdealCorner) {
  auto bank = two_constraint_bank();
  bank.reprogram();
  EXPECT_TRUE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 1, 0}));
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 1, 0, 0}));
}

TEST(FilterBank, NoisyCornersClassifyOffBoundary) {
  std::vector<LinearConstraint> cs(3);
  util::Rng rng(7);
  for (auto& c : cs) {
    c.weights.resize(30);
    for (auto& w : c.weights) {
      w = rng.bernoulli(0.5) ? rng.uniform_int(1, 40) : 0;
    }
    c.capacity = 200;
  }
  InequalityFilterParams params;  // realistic corners
  params.fab_seed = 5;
  FilterBank bank(params, cs, {}, 30);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 60; ++trial) {
    const auto x = rng.random_bits(30, 0.4);
    // Only score configurations at least 3 units from every boundary.
    bool near_boundary = false;
    for (const auto& c : cs) {
      long long t = 0;
      for (std::size_t i = 0; i < 30; ++i) {
        if (x[i]) t += c.weights[i];
      }
      if (std::llabs(t - c.capacity) < 3) near_boundary = true;
    }
    if (near_boundary) continue;
    ++checked;
    EXPECT_EQ(bank.is_feasible(x), bank.exact_feasible(x));
  }
  EXPECT_GE(checked, 30);
}

TEST(FilterBank, EqualityRowsFollowInequalityRows) {
  // One <= row and one one-hot = row over four variables.
  std::vector<LinearConstraint> cs(1), eqs(1);
  cs[0].weights = {3, 4, 0, 0};
  cs[0].capacity = 5;
  eqs[0].weights = {0, 1, 1, 1};
  eqs[0].capacity = 1;
  FilterBank bank(ideal_params(), cs, eqs, 4);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank.filter(0).relation(), Relation::kAtMost);
  EXPECT_EQ(bank.filter(1).relation(), Relation::kEqual);
  EXPECT_EQ(bank.support(1).size(), 3u);
  EXPECT_TRUE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 1, 0}));
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{1, 0, 0, 0}));
  EXPECT_FALSE(bank.is_feasible(std::vector<std::uint8_t>{0, 0, 1, 1}));
  const auto v = bank.verdicts(std::vector<std::uint8_t>{1, 1, 1, 0});
  ASSERT_EQ(v.size(), 2u);
  EXPECT_FALSE(v[0]);  // 7 > 5
  EXPECT_FALSE(v[1]);  // two-hot
}

TEST(FilterBank, ClampsOnlyInequalityCapacities) {
  std::vector<LinearConstraint> rows(1);
  rows[0].weights = {1, 1, 0};
  rows[0].capacity = 1000;  // beyond the 2-column replica's range
  EXPECT_NO_THROW(FilterBank(ideal_params(), rows, {}, 3));
  EXPECT_THROW(FilterBank(ideal_params(), {}, rows, 3), std::invalid_argument);
}

TEST(FilterBank, CloneMatchesRefabricationOnEveryRow) {
  // A noisy corner, so every row's decision stream shows in its verdicts.
  std::vector<LinearConstraint> cs(2), eqs(2);
  util::Rng rng(9);
  for (auto* rows : {&cs, &eqs}) {
    for (auto& c : *rows) {
      c.weights.resize(12);
      for (auto& w : c.weights) w = rng.bernoulli(0.6) ? 1 : 0;
      c.capacity = 3;
    }
  }
  InequalityFilterParams params;
  params.comparator.sigma_noise = 2e-3;
  params.fab_seed = 3;
  const FilterBank proto(params, cs, eqs, 12);
  params.decision_seed = 77;
  FilterBank fabricated(params, cs, eqs, 12);
  FilterBank cloned(proto, 77);
  for (int trial = 0; trial < 100; ++trial) {
    const auto x = rng.random_bits(12, 0.3);
    EXPECT_EQ(fabricated.verdicts(x), cloned.verdicts(x)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hycim::cim
