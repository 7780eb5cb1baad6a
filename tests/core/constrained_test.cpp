// The generic constrained form and the multi-constraint solve path of the
// unified HyCimSolver facade (bin packing, MDKP, mixed equality problems).
#include "core/constrained_form.hpp"

#include <gtest/gtest.h>

#include "cop/adapters.hpp"
#include "core/hycim_solver.hpp"
#include "qubo/brute_force.hpp"

namespace hycim::core {
namespace {

cop::BinPackingInstance tiny_instance() {
  cop::BinPackingInstance inst;
  inst.name = "tiny";
  inst.bin_capacity = 10;
  inst.max_bins = 3;
  inst.item_sizes = {6, 5, 4, 3};  // total 18 -> 2 bins suffice (6+4, 5+3)
  return inst;
}

TEST(ConstrainedForm, FeasibilityChecksEveryConstraint) {
  ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(3);
  cim::LinearConstraint a{{1, 1, 0}, 1};
  cim::LinearConstraint b{{0, 1, 1}, 1};
  form.constraints = {a, b};
  EXPECT_TRUE(form.feasible(std::vector<std::uint8_t>{1, 0, 1}));
  EXPECT_FALSE(form.feasible(std::vector<std::uint8_t>{1, 1, 0}));
  EXPECT_FALSE(form.feasible(std::vector<std::uint8_t>{0, 1, 1}));
}

TEST(ConstrainedForm, EnergyIsZeroWhenInfeasible) {
  ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(2);
  form.q.set(0, 0, -5.0);
  form.constraints = {{{1, 1}, 1}};
  EXPECT_DOUBLE_EQ(form.energy(std::vector<std::uint8_t>{1, 0}), -5.0);
  EXPECT_DOUBLE_EQ(form.energy(std::vector<std::uint8_t>{1, 1}), 0.0);
}

TEST(BinPackingForm, DimensionsAndIndexing) {
  const auto form = cop::to_constrained_form(tiny_instance());
  EXPECT_EQ(form.items, 4u);
  EXPECT_EQ(form.bins, 3u);
  EXPECT_EQ(form.form.size(), 4u * 3u + 3u);
  EXPECT_EQ(form.x_index(0, 0), 0u);
  EXPECT_EQ(form.x_index(1, 2), 5u);
  EXPECT_EQ(form.y_index(0), 12u);
  EXPECT_EQ(form.form.constraints.size(), 3u);  // one inequality per bin
}

TEST(BinPackingForm, ValidAssignmentHasBinCountEnergy) {
  const auto inst = tiny_instance();
  const auto form = cop::to_constrained_form(inst);
  // (6,4) in bin 0, (5,3) in bin 1.
  const auto v = cop::encode_assignment(form, {0, 1, 0, 1});
  EXPECT_TRUE(form.form.feasible(v));
  // All penalties vanish; energy = 2 used bins * unit cost.
  EXPECT_NEAR(form.form.q.energy(v), 2.0, 1e-9);
  EXPECT_EQ(form.used_bins(v), 2u);
}

TEST(BinPackingForm, UnassignedItemPaysOneHotPenalty) {
  const auto form = cop::to_constrained_form(tiny_instance());
  qubo::BitVector v(form.form.size(), 0);
  // Nothing assigned: each of the 4 items pays A = 6.
  EXPECT_NEAR(form.form.q.energy(v), 4.0 * 6.0, 1e-9);
}

TEST(BinPackingForm, UsageLinkPenalizesGhostAssignments) {
  const auto form = cop::to_constrained_form(tiny_instance());
  // Item 0 in bin 0 but y_0 = 0: one-hot satisfied, link violated.
  qubo::BitVector v(form.form.size(), 0);
  v[form.x_index(0, 0)] = 1;
  const double with_ghost = form.form.q.energy(v);
  v[form.y_index(0)] = 1;  // declare the bin used
  const double with_usage = form.form.q.energy(v);
  // Turning y on removes the A2 link penalty and adds the bin cost (1).
  EXPECT_NEAR(with_ghost - with_usage, 6.0 - 1.0, 1e-9);
}

TEST(BinPackingForm, OverfullBinViolatesItsConstraint) {
  const auto inst = tiny_instance();
  const auto form = cop::to_constrained_form(inst);
  // 6 + 5 = 11 > 10 in bin 0.
  const auto v = cop::encode_assignment(form, {0, 0, 1, 1});
  EXPECT_FALSE(form.form.feasible(v));
}

TEST(BinPackingForm, EncodeAssignmentValidates) {
  const auto form = cop::to_constrained_form(tiny_instance());
  EXPECT_THROW(cop::encode_assignment(form, {0, 1}), std::invalid_argument);
  EXPECT_THROW(cop::encode_assignment(form, {0, 1, 2, 9}),
               std::invalid_argument);
}

TEST(BinPackingForm, GroundStateUsesMinimumBins) {
  // Small enough for brute force over the feasible set: 2 items, 2 bins.
  cop::BinPackingInstance inst;
  inst.bin_capacity = 10;
  inst.max_bins = 2;
  inst.item_sizes = {4, 5};  // both fit in one bin
  const auto form = cop::to_constrained_form(inst);
  ASSERT_LE(form.form.size(), 20u);
  const auto result = qubo::brute_force_minimize(
      form.form.q, [&](std::span<const std::uint8_t> x) {
        return form.form.feasible(x);
      });
  EXPECT_NEAR(result.best_energy, 1.0, 1e-9);  // one bin used
  EXPECT_EQ(form.used_bins(result.best_x), 1u);
}

TEST(MdkpForm, EnergyIsNegatedProfit) {
  cop::MdkpGeneratorParams p;
  p.n = 12;
  p.dimensions = 3;
  const auto inst = cop::generate_mdkp(p, 3);
  const auto form = cop::to_constrained_form(inst);
  util::Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const auto x = rng.random_bits(inst.n);
    EXPECT_DOUBLE_EQ(form.q.energy(x),
                     -static_cast<double>(inst.total_profit(x)));
    EXPECT_EQ(form.feasible(x), inst.feasible(x));
  }
}

TEST(MdkpForm, CoefficientRangeIndependentOfDimensions) {
  // The key scaling property: more constraints never inflate (Qij)MAX.
  cop::MdkpGeneratorParams p;
  p.n = 20;
  p.dimensions = 1;
  const auto one = cop::to_constrained_form(cop::generate_mdkp(p, 5));
  p.dimensions = 8;
  const auto eight = cop::to_constrained_form(cop::generate_mdkp(p, 5));
  EXPECT_EQ(one.size(), eight.size());
  EXPECT_LE(eight.q.quantization_bits(), 7);
  EXPECT_LE(one.q.quantization_bits(), 7);
}

TEST(MdkpForm, ConstrainedMinimumMatchesExhaustiveOptimum) {
  cop::MdkpGeneratorParams p;
  p.n = 12;
  p.dimensions = 2;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = cop::generate_mdkp(p, seed);
    const auto form = cop::to_constrained_form(inst);
    const auto result = qubo::brute_force_minimize(
        form.q,
        [&](std::span<const std::uint8_t> x) { return form.feasible(x); });
    long long best = 0;
    qubo::BitVector x(inst.n, 0);
    for (std::uint32_t code = 0; code < (1u << 12); ++code) {
      for (std::size_t i = 0; i < 12; ++i) x[i] = (code >> i) & 1u;
      if (inst.feasible(x)) best = std::max(best, inst.total_profit(x));
    }
    EXPECT_DOUBLE_EQ(result.best_energy, -static_cast<double>(best))
        << "seed " << seed;
  }
}

TEST(MdkpSolver, SolvesSmallInstancesNearOptimally) {
  cop::MdkpGeneratorParams p;
  p.n = 14;
  p.dimensions = 2;
  const auto inst = cop::generate_mdkp(p, 6);
  const auto form = cop::to_constrained_form(inst);
  // Exhaustive optimum.
  long long best = 0;
  qubo::BitVector x(inst.n, 0);
  for (std::uint32_t code = 0; code < (1u << 14); ++code) {
    for (std::size_t i = 0; i < 14; ++i) x[i] = (code >> i) & 1u;
    if (inst.feasible(x)) best = std::max(best, inst.total_profit(x));
  }
  HyCimConfig config;
  config.sa.iterations = 4000;
  config.filter_mode = FilterMode::kSoftware;
  HyCimSolver solver(form, config);
  util::Rng rng(7);
  long long found = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto r = solver.solve(cop::random_feasible(inst, rng), seed);
    EXPECT_TRUE(r.feasible);
    found = std::max(found, static_cast<long long>(-r.best_energy + 0.5));
  }
  EXPECT_GE(found, best * 95 / 100);
}

TEST(ConstrainedSolver, CircuitFidelitySolvesTinyForm) {
  // The unified facade extends the circuit-level crossbar path to
  // multi-constraint forms (the old one-off solver rejected it).
  cop::MdkpGeneratorParams p;
  p.n = 8;
  p.dimensions = 2;
  const auto inst = cop::generate_mdkp(p, 9);
  HyCimConfig config;
  config.sa.iterations = 300;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = FilterMode::kSoftware;
  config.vmv.variation = device::ideal_variation();
  config.vmv.adc.bits = 8;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  util::Rng rng(3);
  const auto r = solver.solve(cop::random_feasible(inst, rng), 5);
  EXPECT_TRUE(r.feasible);
}

TEST(ConstrainedSolver, SolvesTinyBinPackingToFfdQuality) {
  const auto inst = tiny_instance();
  const auto form = cop::to_constrained_form(inst);
  HyCimConfig config;
  config.sa.iterations = 4000;
  config.filter_mode = FilterMode::kSoftware;
  HyCimSolver solver(form.form, config);
  const auto ffd = cop::first_fit_decreasing(inst);
  const auto x0 = cop::encode_assignment(form, ffd);
  const auto result = solver.solve(x0, 7);
  EXPECT_TRUE(result.feasible);
  // Decoded assignment is valid and uses no more bins than FFD.
  const auto assignment = form.decode_assignment(result.best_x);
  EXPECT_TRUE(inst.valid_assignment(assignment));
  std::size_t ffd_bins = 0;
  for (auto b : ffd) ffd_bins = std::max(ffd_bins, b + 1);
  EXPECT_LE(form.used_bins(result.best_x), ffd_bins);
}

TEST(ConstrainedSolver, HardwareFilterBankInTheLoop) {
  const auto inst = tiny_instance();
  const auto form = cop::to_constrained_form(inst);
  HyCimConfig config;
  config.sa.iterations = 800;
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  config.filter.comparator.sigma_offset = 0.0;
  config.filter.comparator.sigma_noise = 0.0;
  HyCimSolver solver(form.form, config);
  ASSERT_NE(solver.filter_bank(), nullptr);
  const auto x0 = cop::encode_assignment(form, cop::first_fit_decreasing(inst));
  const auto result = solver.solve(x0, 3);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(solver.filter_bank()->total_evaluations(), 0u);
}

TEST(ConstrainedSolver, EqualityConstraintHoldsThroughout) {
  // Exactly-k selection via a hardware cardinality (equality) filter plus a
  // budget inequality: swaps keep k fixed, flips are rejected.
  cop::QkpGeneratorParams p;
  p.n = 16;
  auto inst = cop::generate_qkp(p, 3);
  ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      form.q.add(i, j, -static_cast<double>(inst.profit(i, j)));
    }
  }
  form.constraints.push_back(
      {inst.weights, inst.weight_sum()});  // loose budget
  const std::size_t k = 5;
  form.equalities.push_back(
      {std::vector<long long>(inst.n, 1), static_cast<long long>(k)});

  HyCimConfig config;
  config.sa.iterations = 2000;
  config.filter_mode = FilterMode::kSoftware;
  HyCimSolver solver(form, config);

  qubo::BitVector x0(inst.n, 0);
  for (std::size_t i = 0; i < k; ++i) x0[i] = 1;
  const auto result = solver.solve(x0, 11);
  EXPECT_TRUE(result.feasible);
  std::size_t ones = 0;
  for (auto b : result.best_x) ones += b;
  EXPECT_EQ(ones, k);
  // The equality constraint forces every single-bit flip to be rejected:
  // only swaps can move, so the walk explored swaps.
  EXPECT_GT(result.sa.rejected_infeasible, 0u);
}

TEST(ConstrainedSolver, HardwareEqualityFilterInTheLoop) {
  cop::QkpGeneratorParams p;
  p.n = 12;
  auto inst = cop::generate_qkp(p, 4);
  ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    form.q.add(i, i, -static_cast<double>(inst.profit(i, i)));
  }
  form.equalities.push_back({std::vector<long long>(inst.n, 1), 4});

  HyCimConfig config;
  config.sa.iterations = 600;
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  config.filter.comparator.sigma_offset = 0.0;
  config.filter.comparator.sigma_noise = 0.0;
  HyCimSolver solver(form, config);
  ASSERT_NE(solver.filter_bank(), nullptr);
  ASSERT_EQ(solver.filter_bank()->size(), 1u);  // one kEqual row
  EXPECT_EQ(solver.filter_bank()->filter(0).relation(),
            cim::Relation::kEqual);

  qubo::BitVector x0(inst.n, 0);
  for (std::size_t i = 0; i < 4; ++i) x0[i] = 1;
  const auto result = solver.solve(x0, 5);
  EXPECT_TRUE(result.feasible);
  std::size_t ones = 0;
  for (auto b : result.best_x) ones += b;
  EXPECT_EQ(ones, 4u);
}

TEST(ConstrainedSolver, StateStaysFeasibleThroughout) {
  const auto inst = tiny_instance();
  const auto form = cop::to_constrained_form(inst);
  HyCimConfig config;
  config.sa.iterations = 2000;
  config.filter_mode = FilterMode::kSoftware;
  HyCimSolver solver(form.form, config);
  const auto x0 =
      cop::encode_assignment(form, cop::first_fit_decreasing(inst));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto result = solver.solve(x0, seed);
    EXPECT_TRUE(result.feasible) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hycim::core
