// End-to-end scenarios spanning transformation, hardware models, SA, and
// metrics — miniature versions of the paper's evaluation pipeline.
#include <gtest/gtest.h>

#include "anneal/qubo_problem.hpp"
#include "anneal/sa_engine.hpp"
#include "core/dqubo_solver.hpp"
#include "core/exact.hpp"
#include "cop/adapters.hpp"
#include "core/hycim_solver.hpp"
#include "core/maxcut_qubo.hpp"
#include "core/metrics.hpp"
#include "core/reference.hpp"
#include "hw/cost_model.hpp"
#include "hw/search_space.hpp"
#include "qubo/brute_force.hpp"

namespace hycim {
namespace {

cop::QkpInstance mini_instance(std::uint64_t seed, std::size_t n,
                               long long cap = 0) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.weight_max = 12;
  params.capacity_min = 10;
  auto inst = cop::generate_qkp(params, seed);
  if (cap > 0) inst.capacity = cap;
  return inst;
}

TEST(EndToEnd, HyCimBeatsDquboOnMiniSuite) {
  // The Fig. 10 story in miniature: same instances, same SA budget; HyCiM's
  // success rate must dominate the D-QUBO baseline.
  std::vector<long long> hycim_values, dqubo_values;
  long long reference_sum = 0;
  const std::size_t kInstances = 4;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    const auto inst = mini_instance(seed, 18, 30);
    const auto truth = core::exact_qkp(inst);
    reference_sum += truth.best_profit;

    core::HyCimConfig hconfig;
    hconfig.sa.iterations = 4000;
    hconfig.filter_mode = core::FilterMode::kSoftware;
    core::HyCimSolver hycim(cop::to_constrained_form(inst), hconfig);

    core::DquboConfig dconfig;
    dconfig.sa.iterations = 4000;
    dconfig.fidelity = cim::VmvMode::kIdeal;
    core::DquboSolver dqubo(inst, dconfig);

    for (std::uint64_t run = 1; run <= 5; ++run) {
      hycim_values.push_back(
          core::is_success(cop::solve_qkp_from_random(hycim, inst, run).profit,
                           truth.best_profit)
              ? 1
              : 0);
      dqubo_values.push_back(
          core::is_success(dqubo.solve_from_random(run).profit,
                           truth.best_profit)
              ? 1
              : 0);
    }
  }
  const auto rate = [](const std::vector<long long>& v) {
    long long s = 0;
    for (auto x : v) s += x;
    return static_cast<double>(s) / static_cast<double>(v.size());
  };
  EXPECT_GT(rate(hycim_values), rate(dqubo_values));
  EXPECT_GE(rate(hycim_values), 0.8);  // HyCiM solves mini instances reliably
}

TEST(EndToEnd, HardwareAccountingForRealInstance) {
  const auto inst = mini_instance(3, 20, 50);
  core::DquboConfig dconfig;
  core::DquboSolver dqubo(inst, dconfig);

  const auto hycim_hw = hw::hycim_cost(inst.n, 7);
  const auto dqubo_hw = hw::dqubo_cost(dqubo.size(), dqubo.matrix_bits());
  EXPECT_GT(hw::size_saving_percent(hycim_hw, dqubo_hw), 0.0);

  const auto space = hw::compare_search_space(inst.n, inst.capacity);
  EXPECT_EQ(space.dqubo_vars, dqubo.size());
}

TEST(EndToEnd, FullHardwareInTheLoopSolve) {
  // Everything on: hardware filter with realistic variation, circuit-level
  // crossbar with ADC, SA on top.  Small instance so it stays quick.
  const auto inst = mini_instance(4, 10, 25);
  core::HyCimConfig config;
  config.sa.iterations = 600;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = core::FilterMode::kHardware;
  config.vmv.adc.bits = 8;
  core::HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto result = cop::solve_qkp_from_random(solver, inst, 11);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.profit, 0);
  const auto truth = core::exact_qkp(inst);
  EXPECT_GE(core::normalized_value(result.profit, truth.best_profit), 0.5);
}

TEST(EndToEnd, ReferencePipelineTracksExactOnMini) {
  const auto inst = mini_instance(5, 14);
  const auto truth = core::exact_qkp(inst);
  core::ReferenceParams params;
  params.sa_restarts = 4;
  params.sa_iterations = 6000;
  const auto ref = core::reference_solution(inst, params);
  EXPECT_EQ(ref.profit, truth.best_profit);
}

TEST(EndToEnd, MaxCutMatchesBruteForceThroughAnnealer) {
  const auto g = cop::generate_maxcut(14, 0.5, 9, 1.0, 3.0);
  const auto q = core::to_maxcut_qubo(g);
  const auto truth = qubo::brute_force_minimize(q);
  anneal::QuboProblem problem(q.freeze());
  anneal::SaParams params;
  params.iterations = 15000;
  params.seed = 2;
  util::Rng rng(6);
  const auto result =
      anneal::simulated_annealing(problem, rng.random_bits(q.size()), params);
  EXPECT_NEAR(result.best_energy, truth.best_energy,
              std::abs(truth.best_energy) * 0.02);
}

TEST(EndToEnd, SuccessRateMetricsComposeWithSolvers) {
  const auto inst = mini_instance(6, 15, 30);
  const auto truth = core::exact_qkp(inst);
  core::HyCimConfig config;
  config.sa.iterations = 3000;
  config.filter_mode = core::FilterMode::kSoftware;
  core::HyCimSolver solver(cop::to_constrained_form(inst), config);
  std::vector<long long> values;
  for (std::uint64_t run = 1; run <= 10; ++run) {
    values.push_back(cop::solve_qkp_from_random(solver, inst, run).profit);
  }
  const double rate = core::success_rate_percent(values, truth.best_profit);
  EXPECT_GE(rate, 50.0);
}

}  // namespace
}  // namespace hycim
