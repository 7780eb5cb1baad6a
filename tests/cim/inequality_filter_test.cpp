#include "cim/filter/inequality_filter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

InequalityFilterParams ideal_params(std::uint64_t seed = 1) {
  InequalityFilterParams p;
  p.variation = device::ideal_variation();
  p.comparator.sigma_offset = 0.0;
  p.comparator.sigma_noise = 0.0;
  p.fab_seed = seed;
  return p;
}

TEST(InequalityFilter, PaperExampleFig5f) {
  // 4x1 + 7x2 + 2x3 <= 9: exactly the 8-case example of Fig. 5(f);
  // {x2=1,x1=1} (11) and {all} (13) are infeasible.
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9);
  const std::vector<std::vector<std::uint8_t>> configs{
      {0, 0, 0}, {0, 0, 1}, {1, 0, 0}, {1, 0, 1},
      {0, 1, 0}, {0, 1, 1}, {1, 1, 0}, {1, 1, 1}};
  int feasible = 0;
  for (const auto& x : configs) {
    const bool hw = filter.is_feasible(x);
    EXPECT_EQ(hw, filter.exact_feasible(x));
    if (hw) ++feasible;
  }
  EXPECT_EQ(feasible, 6);  // paper: six feasible, two filtered out
}

TEST(InequalityFilter, BoundaryCaseIsFeasible) {
  // Σwx == C must pass (<=, not <).
  InequalityFilter filter(ideal_params(), {5, 4}, 9);
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{1, 1}));
}

TEST(InequalityFilter, OneOverBoundaryIsInfeasible) {
  InequalityFilter filter(ideal_params(), {5, 5}, 9);
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 1}));
}

TEST(InequalityFilter, EmptySelectionAlwaysFeasible) {
  InequalityFilter filter(ideal_params(), {10, 20, 30}, 1);
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(InequalityFilter, NormalizedMlStraddlesUnity) {
  // Feasible -> normalized ML >= 1; infeasible -> < 1 (Fig. 8 geometry).
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9);
  EXPECT_GE(filter.normalized_ml(std::vector<std::uint8_t>{1, 0, 1}), 1.0);
  EXPECT_LT(filter.normalized_ml(std::vector<std::uint8_t>{1, 1, 1}), 1.0);
}

TEST(InequalityFilter, ReplicaEncodesCapacity) {
  InequalityFilter filter(ideal_params(), {10, 10, 10}, 20);
  // A selection of weight exactly C matches the replica ML closely.
  const double ml = filter.ml_voltage(std::vector<std::uint8_t>{1, 1, 0});
  EXPECT_NEAR(ml, filter.replica_voltage(), 2e-3);
}

TEST(InequalityFilter, RejectsOversizedWeight) {
  EXPECT_THROW(InequalityFilter(ideal_params(), {65}, 10),
               std::invalid_argument);
}

TEST(InequalityFilter, RejectsCapacityBeyondReplicaRange) {
  // 2 columns * 64 = 128 max.
  EXPECT_THROW(InequalityFilter(ideal_params(), {1, 1}, 200),
               std::invalid_argument);
}

TEST(InequalityFilter, RejectsNegativeCapacity) {
  EXPECT_THROW(InequalityFilter(ideal_params(), {1}, -1),
               std::invalid_argument);
}

TEST(InequalityFilter, StatsCountDecisions) {
  InequalityFilter filter(ideal_params(), {6, 6}, 6);
  filter.is_feasible(std::vector<std::uint8_t>{1, 0});  // feasible
  filter.is_feasible(std::vector<std::uint8_t>{1, 1});  // infeasible
  filter.is_feasible(std::vector<std::uint8_t>{0, 0});  // feasible
  EXPECT_EQ(filter.stats().evaluations, 3u);
  EXPECT_EQ(filter.stats().feasible, 2u);
  EXPECT_EQ(filter.stats().infeasible, 1u);
}

TEST(InequalityFilter, RandomConfigsMatchExactInIdealCorner) {
  util::Rng rng(7);
  std::vector<long long> weights(30);
  for (auto& w : weights) w = rng.uniform_int(1, 50);
  InequalityFilter filter(ideal_params(3), weights, 200);
  for (int trial = 0; trial < 200; ++trial) {
    const auto x = rng.random_bits(30, 0.3);
    EXPECT_EQ(filter.is_feasible(x), filter.exact_feasible(x));
  }
}

TEST(InequalityFilter, RealisticCornersStayAccurateOffBoundary) {
  // Default variation + comparator corners: configurations at least 3
  // weight units away from the boundary must classify correctly.
  util::Rng rng(8);
  std::vector<long long> weights(40);
  for (auto& w : weights) w = rng.uniform_int(1, 50);
  InequalityFilterParams params;  // realistic defaults
  params.fab_seed = 11;
  InequalityFilter filter(params, weights, 400);
  int checked = 0;
  for (int trial = 0; trial < 500 && checked < 100; ++trial) {
    const auto x = rng.random_bits(40, 0.4);
    long long w = 0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (x[i]) w += weights[i];
    }
    if (std::llabs(w - 400) < 3) continue;  // skip razor-thin margins
    ++checked;
    EXPECT_EQ(filter.is_feasible(x), filter.exact_feasible(x))
        << "weight " << w;
  }
  EXPECT_GE(checked, 50);
}

TEST(InequalityFilter, ReprogramKeepsDecisionsInIdealCorner) {
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9);
  filter.reprogram();
  EXPECT_TRUE(filter.is_feasible(std::vector<std::uint8_t>{0, 1, 1}));
  EXPECT_FALSE(filter.is_feasible(std::vector<std::uint8_t>{1, 1, 0}));
}

TEST(InequalityFilter, AccessorsExposeGeometry) {
  InequalityFilter filter(ideal_params(), {4, 7, 2}, 9);
  EXPECT_EQ(filter.items(), 3u);
  EXPECT_EQ(filter.capacity(), 9);
  EXPECT_EQ(filter.working_array().columns(), 3u);
  EXPECT_EQ(filter.replica_array().columns(), 3u);
  // The replica's hard-wired input is all ones.
  EXPECT_EQ(filter.replica_voltage(), filter.replica_array().evaluate(
                                          std::vector<std::uint8_t>(3, 1)));
}

TEST(InequalityFilter, DecisionSeedGivesIndependentMeasurementNoise) {
  // Same fabricated chip (fab_seed fixed), different decision_seed: the
  // per-comparison noise streams must differ — this is how the batch runner
  // models independent repeated measurements.  At the exact boundary with
  // zero margin and no offset, each decision is a coin flip on the noise.
  auto params = [](std::uint64_t decision_seed) {
    InequalityFilterParams p;
    p.variation = device::ideal_variation();
    p.comparator.sigma_offset = 0.0;  // keep fabrication identical & silent
    p.comparator.sigma_noise = 20e-6;
    p.margin_units = 0.0;  // Σwx == C lands exactly on the threshold
    p.fab_seed = 5;
    p.decision_seed = decision_seed;
    return p;
  };
  const std::vector<long long> weights{1, 1, 1, 1};
  const std::vector<std::uint8_t> boundary{1, 1, 0, 0};  // Σ = C = 2

  auto decisions = [&](std::uint64_t seed) {
    InequalityFilter filter(params(seed), weights, 2);
    std::vector<bool> out;
    for (int i = 0; i < 100; ++i) out.push_back(filter.is_feasible(boundary));
    return out;
  };
  EXPECT_EQ(decisions(111), decisions(111));  // reproducible per seed
  EXPECT_NE(decisions(111), decisions(222));  // independent across seeds
  // decision_seed = 0 keeps the legacy fab-derived stream.
  EXPECT_EQ(decisions(0), decisions(0));
}

TEST(InequalityFilter, ReprogramAndAgeOnACloneLeaveTheOthersAlone) {
  // Clones share the prototype's fabricated arrays, and reprogram() and
  // age() copy them on write.  After one clone is reprogrammed and aged,
  // the prototype and a sibling clone must measure bit for bit what an
  // untouched twin fabrication and its clone measure.
  util::Rng rng(21);
  std::vector<long long> weights(30);
  for (auto& w : weights) w = rng.uniform_int(1, 40);
  InequalityFilterParams params;  // realistic variation and noise corners
  params.fab_seed = 17;
  const long long capacity = 300;
  InequalityFilter proto(params, weights, capacity);
  InequalityFilter twin(params, weights, capacity);
  InequalityFilter sibling(proto, 99);
  InequalityFilter twin_sibling(twin, 99);
  InequalityFilter mutated(proto, 99);

  std::vector<std::vector<std::uint8_t>> configs;
  for (int i = 0; i < 40; ++i) configs.push_back(rng.random_bits(30, 0.4));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double before = mutated.ml_voltage(configs[0]);
  mutated.reprogram();
  mutated.age(3.0e7);
  ASSERT_NE(bits(mutated.ml_voltage(configs[0])), bits(before));

  EXPECT_EQ(bits(proto.replica_voltage()), bits(twin.replica_voltage()));
  EXPECT_EQ(bits(sibling.replica_voltage()),
            bits(twin_sibling.replica_voltage()));
  sibling.bind(configs[0]);
  twin_sibling.bind(configs[0]);
  for (const auto& x : configs) {
    EXPECT_EQ(bits(proto.ml_voltage(x)), bits(twin.ml_voltage(x)));
    EXPECT_EQ(bits(sibling.ml_voltage(x)), bits(twin_sibling.ml_voltage(x)));
    EXPECT_EQ(proto.is_feasible(x), twin.is_feasible(x));
    EXPECT_EQ(sibling.is_feasible(x), twin_sibling.is_feasible(x));
  }
  for (std::size_t k = 0; k + 1 < weights.size(); ++k) {
    const std::vector<std::size_t> flips{k, k + 1};
    EXPECT_EQ(bits(sibling.trial_ml(flips)),
              bits(twin_sibling.trial_ml(flips)));
    EXPECT_EQ(sibling.trial_feasible(flips),
              twin_sibling.trial_feasible(flips));
  }
}

}  // namespace
}  // namespace hycim::cim
