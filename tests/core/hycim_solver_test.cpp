#include "core/hycim_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cim/crossbar/bit_slice.hpp"
#include "cop/adapters.hpp"
#include "core/exact.hpp"
#include "runtime/batch_runner.hpp"
#include "util/rng.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance small_instance(std::uint64_t seed, std::size_t n = 16,
                                int density_percent = 50) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = density_percent;
  return cop::generate_qkp(params, seed);
}

HyCimConfig fast_config(std::size_t iterations = 3000) {
  HyCimConfig config;
  config.sa.iterations = iterations;
  config.fidelity = cim::VmvMode::kQuantized;
  config.filter_mode = FilterMode::kSoftware;
  return config;
}

/// A chip's frozen evaluation matrix and the structure its kernel walks.
std::pair<const qubo::FrozenQubo*, const void*> shared_matrix(
    const HyCimSolver& chip) {
  const qubo::FrozenQubo& m = *chip.eval_matrix();
  if (chip.kernel() == qubo::Kernel::kSparse) {
    return {&m, &m.neighbor_index()};
  }
  return {&m, &m.dense_rows()};
}

TEST(HyCimSolver, ClonesShareOneFrozenMatrix) {
  // Every path that copies a programmed chip — a service cache hit (clone
  // + retarget), the batch-restart clones made from it, and the tempering
  // replicas cloned from each restart — shares the prototype's frozen
  // matrix and its mirror / neighbor index; none copies or rebuilds them.
  // The instance's density picks the kernel: 75 runs dense, 25 sparse.
  const struct {
    int density_percent;
    qubo::Kernel kernel;
  } cases[] = {{75, qubo::Kernel::kDense}, {25, qubo::Kernel::kSparse}};
  for (const auto& [density_percent, kernel] : cases) {
    SCOPED_TRACE(qubo::kernel_name(kernel));
    HyCimConfig config = fast_config(200);
    config.filter_mode = FilterMode::kHardware;
    const auto inst = small_instance(7, 40, density_percent);
    // The service's chip cache holds prototypes this way.
    const auto proto = std::make_shared<const HyCimSolver>(
        cop::to_constrained_form(inst), config);
    ASSERT_EQ(proto->kernel(), kernel);
    const auto expected = shared_matrix(*proto);

    HyCimSolver hit(*proto, 0);
    HyCimConfig tempered = config;
    tempered.search = anneal::TemperingParams{};
    hit.retarget_solve(tempered);
    EXPECT_EQ(shared_matrix(hit), expected);
    for (std::uint64_t r = 1; r <= 3; ++r) {
      const HyCimSolver restart(hit, r);
      EXPECT_EQ(shared_matrix(restart), expected);
      const HyCimSolver replica(restart, util::fork_seed(r, 0xC0000000ULL));
      EXPECT_EQ(shared_matrix(replica), expected);
    }

    // Through the batch runner: while a restart runs, its clone holds one
    // more reference on the prototype's matrix (a copy would hold none).
    const long idle = proto->eval_matrix().use_count();
    std::vector<long> during;
    runtime::BatchParams batch;
    batch.restarts = 3;
    batch.threads = 1;
    runtime::solve_batch(*proto, [&](util::Rng& rng) {
      during.push_back(proto->eval_matrix().use_count());
      return cop::random_feasible(inst, rng);
    }, batch);
    ASSERT_EQ(during.size(), 3u);
    for (const long count : during) EXPECT_GT(count, idle);
  }
}

TEST(HyCimSolver, EvalMatrixFollowsTheFidelity) {
  // kIdeal walks the form's matrix; kQuantized the one cim::program picks;
  // kCircuit derives the same matrix from its engine's quantization.  At
  // 5 bits the QKP's profits (up to 100) quantize lossily.
  const auto form = cop::to_constrained_form(small_instance(11));
  const auto packed_bits = [](const qubo::FrozenQubo& m) {
    std::vector<std::uint64_t> out;
    for (const double v : m.matrix().packed()) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
    out.push_back(std::bit_cast<std::uint64_t>(m.matrix().offset()));
    return out;
  };
  const auto source = packed_bits(*form.q.freeze());
  const auto programmed =
      packed_bits(*cim::program(form.q.freeze(), 5).matrix);
  ASSERT_NE(programmed, source);
  const struct {
    cim::VmvMode fidelity;
    const std::vector<std::uint64_t>& expected;
  } cases[] = {{cim::VmvMode::kIdeal, source},
               {cim::VmvMode::kQuantized, programmed},
               {cim::VmvMode::kCircuit, programmed}};
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.fidelity));
    HyCimConfig config = fast_config(200);
    config.fidelity = c.fidelity;
    config.matrix_bits = 5;
    const HyCimSolver chip(form, config);
    EXPECT_EQ(packed_bits(*chip.eval_matrix()), c.expected);
    for (const int bad_bits : {0, 63}) {
      config.matrix_bits = bad_bits;
      EXPECT_THROW(HyCimSolver(form, config), std::invalid_argument);
    }
  }
}

TEST(HyCimSolver, ResultIsAlwaysFeasible) {
  const auto inst = small_instance(1);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto result = cop::solve_qkp_from_random(solver, inst, seed);
    EXPECT_TRUE(result.feasible);
    EXPECT_TRUE(inst.feasible(result.best_x));
    EXPECT_EQ(result.profit, inst.total_profit(result.best_x));
  }
}

TEST(HyCimSolver, ReachesExactOptimumOnSmallInstances) {
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    const auto inst = small_instance(seed, 14);
    const auto truth = exact_qkp(inst);
    HyCimSolver solver(cop::to_constrained_form(inst), fast_config(8000));
    long long best = 0;
    for (std::uint64_t run = 1; run <= 4; ++run) {
      best = std::max(best, cop::solve_qkp_from_random(solver, inst, run).profit);
    }
    EXPECT_GE(best, truth.best_profit * 95 / 100) << "seed " << seed;
  }
}

TEST(HyCimSolver, EnergyProfitConsistency) {
  const auto inst = small_instance(5);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  const auto result = cop::solve_qkp_from_random(solver, inst, 9);
  // best_energy is the (quantized == exact for integer) QUBO energy.
  EXPECT_NEAR(result.best_energy, -static_cast<double>(result.profit), 1e-9);
}

TEST(HyCimSolver, RejectsWrongInitialSize) {
  const auto inst = small_instance(6);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  EXPECT_THROW(solver.solve(qubo::BitVector(3, 0), 1), std::invalid_argument);
}

TEST(HyCimSolver, HardwareFilterModeSolves) {
  const auto inst = small_instance(7, 20);
  HyCimConfig config = fast_config(1500);
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  config.filter.comparator.sigma_offset = 0.0;
  config.filter.comparator.sigma_noise = 0.0;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  ASSERT_NE(solver.filter_bank(), nullptr);
  ASSERT_EQ(solver.filter_bank()->size(), 1u);
  const auto result = cop::solve_qkp_from_random(solver, inst, 3);
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(result.profit, 0);
  // The filter was actually exercised.
  EXPECT_GT(solver.filter_bank()->filter(0).stats().evaluations, 0u);
  EXPECT_EQ(solver.filter_bank()->total_evaluations(),
            solver.filter_bank()->filter(0).stats().evaluations);
}

TEST(HyCimSolver, RejectsRowsOfTheWrongWidth) {
  // Narrow and wide rows, each as an inequality and as an equality, each
  // with software and hardware filters: the fabricating constructor names
  // the offending row before anything reads its weights.
  for (const std::size_t width : {std::size_t{5}, std::size_t{11}}) {
    for (const bool equality : {false, true}) {
      for (const FilterMode mode :
           {FilterMode::kSoftware, FilterMode::kHardware}) {
        ConstrainedQuboForm form;
        form.q = qubo::QuboMatrix(8);
        form.q.add(0, 0, -1.0);
        auto& rows = equality ? form.equalities : form.constraints;
        rows.push_back({std::vector<long long>(8, 1), 2});  // well-formed
        rows.push_back({std::vector<long long>(width, 1), 2});
        HyCimConfig config = fast_config(100);
        config.filter_mode = mode;
        const std::string row = equality ? "equality 1" : "inequality 1";
        SCOPED_TRACE(row + " of width " + std::to_string(width) +
                     (mode == FilterMode::kHardware ? ", hardware"
                                                    : ", software"));
        try {
          HyCimSolver solver(form, config);
          ADD_FAILURE() << "no exception";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(row), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(HyCimSolver, RejectsFormWithNoVariables) {
  // Nothing to anneal: the fabricating constructor refuses the form, with
  // no rows and with a zero-width row, in either filter mode.
  for (const bool with_row : {false, true}) {
    for (const FilterMode mode :
         {FilterMode::kSoftware, FilterMode::kHardware}) {
      SCOPED_TRACE(std::string(with_row ? "one row" : "no rows") +
                   (mode == FilterMode::kHardware ? ", hardware"
                                                  : ", software"));
      ConstrainedQuboForm form;
      if (with_row) form.constraints.push_back({{}, 1});
      HyCimConfig config = fast_config(100);
      config.filter_mode = mode;
      EXPECT_THROW(HyCimSolver(form, config), std::invalid_argument);
    }
  }
}

TEST(HyCimSolver, SoftwareModeHasNoFilter) {
  const auto inst = small_instance(8);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config());
  EXPECT_EQ(solver.filter_bank(), nullptr);
}

TEST(HyCimSolver, CircuitFidelitySolvesTinyInstance) {
  const auto inst = small_instance(9, 8);
  HyCimConfig config;
  config.sa.iterations = 400;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = FilterMode::kSoftware;
  config.vmv.variation = device::ideal_variation();
  config.vmv.adc.bits = 8;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto result = cop::solve_qkp_from_random(solver, inst, 2);
  EXPECT_TRUE(result.feasible);
  const auto truth = exact_qkp(inst);
  EXPECT_GE(result.profit, truth.best_profit / 2);
}

TEST(HyCimSolver, DeterministicForFixedSeeds) {
  const auto inst = small_instance(10);
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config(500));
  const auto a = cop::solve_qkp_from_random(solver, inst, 77);
  const auto b = cop::solve_qkp_from_random(solver, inst, 77);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.profit, b.profit);
}

TEST(HyCimSolver, InfeasibleRejectionsCounted) {
  // Tight capacity: most add-flips are infeasible and must be filtered.
  auto inst = small_instance(11, 20);
  inst.capacity = inst.max_weight();  // roughly one item fits
  HyCimSolver solver(cop::to_constrained_form(inst), fast_config(1000));
  const auto result = cop::solve_qkp_from_random(solver, inst, 5);
  EXPECT_GT(result.sa.rejected_infeasible, 0u);
  EXPECT_TRUE(result.feasible);
}

TEST(HyCimSolver, TraceCanBeRecorded) {
  const auto inst = small_instance(12);
  HyCimConfig config = fast_config(300);
  config.sa.record_trace = true;
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto result = cop::solve_qkp_from_random(solver, inst, 1);
  EXPECT_EQ(result.sa.trace.size(), 300u);
}

TEST(HyCimSolver, FormExposesTransformation) {
  const auto inst = small_instance(13);
  const auto form = cop::to_constrained_form(inst);
  HyCimSolver solver(form, fast_config());
  EXPECT_EQ(solver.form().size(), inst.n);
  ASSERT_EQ(solver.form().constraints.size(), 1u);
  EXPECT_EQ(solver.form().constraints[0].capacity, inst.capacity);
  EXPECT_EQ(solver.form().constraints[0].weights, inst.weights);
  EXPECT_TRUE(solver.form().equalities.empty());
}

TEST(HyCimSolver, PublicHeaderIsProblemAgnostic) {
  // The facade never sees the QKP: an equivalent hand-built form produces
  // bit-identical walks.
  const auto inst = small_instance(15, 12);
  ConstrainedQuboForm manual;
  manual.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) manual.q.set(i, j, -static_cast<double>(p));
    }
  }
  manual.constraints.push_back({inst.weights, inst.capacity});

  HyCimSolver from_adapter(cop::to_constrained_form(inst), fast_config(600));
  HyCimSolver from_manual(manual, fast_config(600));
  qubo::BitVector x0(inst.n, 0);
  const auto a = from_adapter.solve(x0, 99);
  const auto b = from_manual.solve(x0, 99);
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_DOUBLE_EQ(a.best_energy, b.best_energy);
}

TEST(HyCimSolver, ReprogramKeepsSolvingInIdealCorner) {
  const auto inst = small_instance(14, 12);
  HyCimConfig config = fast_config(1000);
  config.filter_mode = FilterMode::kHardware;
  config.filter.variation = device::ideal_variation();
  HyCimSolver solver(cop::to_constrained_form(inst), config);
  const auto before = cop::solve_qkp_from_random(solver, inst, 4);
  solver.reprogram();
  const auto after = cop::solve_qkp_from_random(solver, inst, 4);
  EXPECT_EQ(before.profit, after.profit);
}

}  // namespace
}  // namespace hycim::core
