// Cross-fidelity agreement: the fast surrogate paths used by the large
// benches must agree with the full circuit models where the corners allow,
// and degrade in the documented ways where they don't.
#include <gtest/gtest.h>

#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "cop/adapters.hpp"
#include "core/hycim_solver.hpp"
#include "core/inequality_qubo.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

cop::QkpInstance instance(std::uint64_t seed, std::size_t n) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 75;
  return cop::generate_qkp(params, seed);
}

TEST(HardwareFidelity, QuantizedEqualsCircuitInIdealCorner) {
  const auto inst = instance(1, 14);
  const auto form = core::to_inequality_qubo(inst);

  // What a kQuantized walk reads.
  const qubo::FrozenQuboPtr fast = cim::program(form.q.freeze(), 7).matrix;

  cim::VmvEngineParams circuit;
  circuit.variation = device::ideal_variation();
  circuit.adc.bits = 8;
  cim::VmvEngine slow(*form.q.freeze(), 7, circuit);

  util::Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const auto x = rng.random_bits(inst.n, 0.4);
    EXPECT_NEAR(fast->energy(x), slow.energy(x), 1e-9) << "trial " << trial;
  }
}

TEST(HardwareFidelity, CircuitEnergyErrorSmallUnderRealisticCorners) {
  const auto inst = instance(2, 16);
  const auto form = core::to_inequality_qubo(inst);
  cim::VmvEngineParams circuit;
  circuit.adc.bits = 8;
  circuit.fab_seed = 5;
  cim::VmvEngine engine(*form.q.freeze(), 7, circuit);
  util::Rng rng(3);
  double worst_rel = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = rng.random_bits(inst.n, 0.5);
    const double exact = engine.quantized().energy(x);
    if (exact == 0.0) continue;
    const double rel = std::abs(engine.energy(x) - exact) / std::abs(exact);
    worst_rel = std::max(worst_rel, rel);
  }
  EXPECT_LT(worst_rel, 0.15);  // regulated cells + 8b ADC stay within 15%
}

TEST(HardwareFidelity, SolverResultsAgreeAcrossFidelitiesIdealCorner) {
  // Same seeds, ideal corners: the quantized fast path and the full circuit
  // path must walk to the same answer on an integer-profit instance.
  const auto inst = instance(3, 10);

  core::HyCimConfig fast;
  fast.sa.iterations = 500;
  fast.fidelity = cim::VmvMode::kQuantized;
  fast.filter_mode = core::FilterMode::kSoftware;
  core::HyCimSolver fast_solver(cop::to_constrained_form(inst), fast);

  core::HyCimConfig slow = fast;
  slow.fidelity = cim::VmvMode::kCircuit;
  slow.vmv.variation = device::ideal_variation();
  slow.vmv.adc.bits = 8;
  core::HyCimSolver slow_solver(cop::to_constrained_form(inst), slow);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto a = cop::solve_qkp_from_random(fast_solver, inst, seed);
    const auto b = cop::solve_qkp_from_random(slow_solver, inst, seed);
    EXPECT_EQ(a.profit, b.profit) << "seed " << seed;
    EXPECT_EQ(a.best_x, b.best_x) << "seed " << seed;
  }
}

TEST(HardwareFidelity, HardwareFilterMatchesSoftwareAwayFromBoundary) {
  const auto inst = instance(4, 30);
  cim::InequalityFilterParams p;  // realistic corners
  p.fab_seed = 9;
  cim::InequalityFilter filter(p, inst.weights, inst.capacity);
  util::Rng rng(5);
  int mismatches = 0, checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto x = rng.random_bits(inst.n, 0.4);
    long long w = 0;
    for (std::size_t i = 0; i < inst.n; ++i) {
      if (x[i]) w += inst.weights[i];
    }
    if (std::llabs(w - inst.capacity) < 3) continue;
    ++checked;
    if (filter.is_feasible(x) != (w <= inst.capacity)) ++mismatches;
  }
  ASSERT_GT(checked, 100);
  EXPECT_EQ(mismatches, 0);
}

TEST(HardwareFidelity, LowAdcResolutionDegradesSolutionQuality) {
  // Ablation A3 smoke check: 3-bit ADC clips column counts and the solver's
  // achievable profit drops (or at best matches) relative to 8-bit.
  const auto inst = instance(5, 12);
  auto run = [&](int adc_bits) {
    core::HyCimConfig config;
    config.sa.iterations = 400;
    config.fidelity = cim::VmvMode::kCircuit;
    config.filter_mode = core::FilterMode::kSoftware;
    config.vmv.variation = device::ideal_variation();
    config.vmv.adc.bits = adc_bits;
    core::HyCimSolver solver(cop::to_constrained_form(inst), config);
    long long best = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      best = std::max(best, cop::solve_qkp_from_random(solver, inst, seed).profit);
    }
    return best;
  };
  EXPECT_LE(run(3), run(8));
}

}  // namespace
}  // namespace hycim
