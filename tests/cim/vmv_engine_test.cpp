#include "cim/crossbar/vmv_engine.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/rng.hpp"

namespace hycim::cim {
namespace {

qubo::QuboMatrix integer_qubo(std::size_t n, util::Rng& rng, long long max) {
  qubo::QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      q.set(i, j, static_cast<double>(rng.uniform_int(-max, max)));
    }
  }
  return q;
}

VmvEngineParams circuit_params(std::uint64_t seed = 1) {
  VmvEngineParams p;
  p.variation = device::ideal_variation();
  p.adc.bits = 8;
  p.adc.sigma_noise_a = 0.0;
  p.fab_seed = seed;
  return p;
}

TEST(VmvEngine, CircuitModeMatchesQuantizedInIdealCorner) {
  // With no variation and a clean ADC, the full circuit path must agree
  // with the quantized-matrix energy exactly (the surrogate-fidelity
  // justification used by the fast SA path).
  util::Rng rng(3);
  const auto q = integer_qubo(10, rng, 100);
  VmvEngine engine(*q.freeze(), 7, circuit_params());
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.random_bits(10, 0.4);
    EXPECT_NEAR(engine.energy(x), engine.quantized().energy(x), 1e-9)
        << "trial " << trial;
  }
}

TEST(VmvEngine, CircuitModeEmptySelectionIsOffset) {
  util::Rng rng(4);
  auto q = integer_qubo(6, rng, 50);
  q.set_offset(17.0);
  VmvEngine engine(*q.freeze(), 7, circuit_params());
  EXPECT_NEAR(engine.energy(std::vector<std::uint8_t>(6, 0)), 17.0, 1e-9);
}

TEST(VmvEngine, QuantizesAtConstructionAndCopiesShareIt) {
  // The engine quantizes once; its copies share that QuantizedQubo.
  util::Rng rng(5);
  const auto q = integer_qubo(8, rng, 100);
  VmvEngine engine(*q.freeze(), 7, circuit_params());
  const QuantizedQubo expected = quantize(q, 7);
  EXPECT_EQ(engine.quantized().values, expected.values);
  EXPECT_EQ(engine.quantized().scale, expected.scale);
  EXPECT_EQ(engine.magnitude_bits(), expected.magnitude_bits);
  const VmvEngine copy(engine);
  EXPECT_EQ(&copy.quantized(), &engine.quantized());
}

TEST(VmvEngine, RejectsMisuse) {
  qubo::QuboMatrix q(4);
  q.set(0, 0, -1.0);
  EXPECT_THROW(VmvEngine(*q.freeze(), 0), std::invalid_argument);
  EXPECT_THROW(VmvEngine(*q.freeze(), 63), std::invalid_argument);
  VmvEngine engine(*q.freeze(), 7, circuit_params());
  EXPECT_THROW(engine.energy(std::vector<std::uint8_t>(3, 0)),
               std::invalid_argument);
  EXPECT_THROW(engine.bound_energy(), std::logic_error);
  const std::array<std::size_t, 1> flips{0};
  EXPECT_THROW(engine.trial(flips), std::logic_error);
  EXPECT_THROW(engine.apply(flips), std::logic_error);
  EXPECT_THROW(engine.bind(std::vector<std::uint8_t>(3, 0)),
               std::invalid_argument);
}

TEST(VmvEngine, NegativeOnlyMatrixUsesNegPlanes) {
  // HyCiM matrices are all-negative (Q = -P); the negative plane path must
  // carry the full value.
  qubo::QuboMatrix q(4);
  q.set(0, 0, -10.0);
  q.set(0, 1, -3.0);
  q.set(2, 3, -7.0);
  VmvEngine engine(*q.freeze(), 7, circuit_params(2));
  const std::vector<std::uint8_t> all(4, 1);
  EXPECT_NEAR(engine.energy(all), -20.0, 1e-9);
}

TEST(VmvEngine, AdcClipDegradesLargeColumns) {
  // A 2-bit ADC (max code 3) cannot represent a column with 8 ON cells;
  // the engine must under-report magnitude and count clips.
  qubo::QuboMatrix q(8);
  for (std::size_t i = 0; i < 8; ++i) q.set(i, 7, -1.0);  // column 7 heavy
  auto p = circuit_params(3);
  p.adc.bits = 2;
  VmvEngine engine(*q.freeze(), 7, p);
  const std::vector<std::uint8_t> all(8, 1);
  const double e = engine.energy(all);
  EXPECT_GT(e, q.energy(all));  // magnitude clipped toward zero
  EXPECT_GT(engine.adc_clips(), 0u);
}

TEST(VmvEngine, CircuitWithVariationStaysClose) {
  util::Rng rng(6);
  const auto q = integer_qubo(12, rng, 50);
  auto p = circuit_params(4);
  p.variation = device::VariationParams{};  // realistic corners
  VmvEngine engine(*q.freeze(), 7, p);
  for (int trial = 0; trial < 10; ++trial) {
    const auto x = rng.random_bits(12, 0.5);
    const double exact = engine.quantized().energy(x);
    const double hw = engine.energy(x);
    if (exact != 0.0) {
      EXPECT_NEAR(hw / exact, 1.0, 0.2) << "trial " << trial;
    }
  }
}

TEST(VmvEngine, ReprogramIsStableInIdealCorner) {
  util::Rng rng(7);
  const auto q = integer_qubo(6, rng, 30);
  VmvEngine engine(*q.freeze(), 7, circuit_params(5));
  const auto x = rng.random_bits(6);
  const double before = engine.energy(x);
  engine.reprogram();
  EXPECT_NEAR(engine.energy(x), before, 1e-9);
}

TEST(VmvEngine, CopiesShareCrossbarsAndReprogramOnlyTheirOwn) {
  // A copy shares the prototype's programmed crossbars; reprogramming the
  // copy programs fresh ones from the copy's own stream and leaves the
  // prototype reading what it was fabricated with.  Twins fabricated from
  // the same seeds stand for "never reprogrammed" and "reprogrammed once".
  util::Rng rng(9);
  const auto q = integer_qubo(16, rng, 100);
  const qubo::FrozenQuboPtr frozen = q.freeze();
  auto p = circuit_params(6);
  // Cycle-to-cycle spread wide enough to flip some cells past the read
  // voltage, so a reprogram moves the digitized energies.
  p.variation = device::VariationParams{};
  p.variation.sigma_vth_c2c = 0.5;
  const VmvEngine proto(*frozen, 7, p);
  VmvEngine copy(proto);
  copy.reprogram();
  VmvEngine fresh(*frozen, 7, p);
  VmvEngine reprogrammed(*frozen, 7, p);
  reprogrammed.reprogram();
  VmvEngine proto_view(proto);  // reads the prototype's crossbars
  bool moved = false;
  for (int trial = 0; trial < 40; ++trial) {
    const auto x = rng.random_bits(16, 0.5);
    const double before = fresh.energy(x);
    const double after = reprogrammed.energy(x);
    moved |= before != after;
    EXPECT_EQ(proto_view.energy(x), before) << "trial " << trial;
    EXPECT_EQ(copy.energy(x), after) << "trial " << trial;
  }
  EXPECT_TRUE(moved) << "reprogramming moved no energy: the check is vacuous";
}

}  // namespace
}  // namespace hycim::cim
