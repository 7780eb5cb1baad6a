// The sparsity-aware kernel layer, end to end: the frozen matrix's density
// picks the per-flip kernel and the solver, its results and the batch
// runner report that choice; whole SA walks over one frozen matrix are
// bit-identical under both kernels (the evaluator seam forces each in
// turn); and the incidence-gated hardware filter path runs on sparse
// multi-constraint forms (MDKP with many rows and few incidences per
// variable) under the check_incremental oracle.
#include <gtest/gtest.h>

#include <string>

#include "anneal/qubo_problem.hpp"
#include "anneal/sa_engine.hpp"
#include "cop/adapters.hpp"
#include "core/hycim_solver.hpp"
#include "runtime/batch_runner.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

core::HyCimConfig solver_config(std::size_t iterations = 600) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  return config;
}

cop::QkpInstance qkp(std::size_t n, int density_percent, std::uint64_t seed) {
  cop::QkpGeneratorParams gp;
  gp.n = n;
  gp.density_percent = density_percent;
  return cop::generate_qkp(gp, seed);
}

TEST(SparseKernel, KernelFollowsInstanceDensity) {
  const auto sparse_inst = qkp(40, 25, 3);
  const auto dense_inst = qkp(40, 75, 3);
  core::HyCimSolver sparse(cop::to_constrained_form(sparse_inst),
                           solver_config());
  core::HyCimSolver dense(cop::to_constrained_form(dense_inst),
                          solver_config());
  EXPECT_EQ(sparse.kernel(), qubo::Kernel::kSparse);
  EXPECT_EQ(sparse.kernel(), sparse.eval_matrix()->kernel());
  EXPECT_EQ(dense.kernel(), qubo::Kernel::kDense);

  // The choice is surfaced on the result.
  util::Rng rng(5);
  EXPECT_EQ(sparse.solve(cop::random_feasible(sparse_inst, rng), 7).kernel,
            qubo::Kernel::kSparse);
  EXPECT_EQ(dense.solve(cop::random_feasible(dense_inst, rng), 7).kernel,
            qubo::Kernel::kDense);
}

void expect_identical(const anneal::SaResult& a, const anneal::SaResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.final_x, b.final_x);
  EXPECT_EQ(a.final_energy, b.final_energy);
  EXPECT_EQ(a.proposed, b.proposed);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_infeasible, b.rejected_infeasible);
  EXPECT_EQ(a.rejected_metropolis, b.rejected_metropolis);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(SparseKernel, WholeWalksAreBitIdenticalUnderBothKernels) {
  // One frozen matrix, both kernels forced through the evaluator seam:
  // every proposal's delta and every commit must agree bit for bit, so the
  // walks — flips and swaps, in both temperature modes — are identical.
  // The QKP forms are integral (int32 mirror rows); the fractional
  // matrix's mirror rows are doubles.
  util::Rng rng(13);
  qubo::QuboMatrix fractional(48);
  for (std::size_t i = 0; i < 48; ++i) {
    for (std::size_t j = i; j < 48; ++j) {
      if (rng.bernoulli(0.2)) fractional.set(i, j, rng.uniform(-40.0, 40.0));
    }
  }
  const struct {
    const char* name;
    qubo::FrozenQuboPtr q;
  } matrices[] = {
      {"qkp-25", cop::to_constrained_form(qkp(64, 25, 17)).q.freeze()},
      {"qkp-50", cop::to_constrained_form(qkp(64, 50, 17)).q.freeze()},
      {"fractional-20", fractional.freeze()},
  };
  for (const auto& [name, q] : matrices) {
    for (const bool fixed : {false, true}) {
      SCOPED_TRACE(std::string(name) + (fixed ? " fixed" : " schedule"));
      anneal::SaParams params;
      params.iterations = 3000;
      params.swap_probability = 0.4;
      params.record_trace = true;
      const qubo::BitVector x0 = rng.random_bits(q->size());
      const auto walk = [&](qubo::Kernel kernel) {
        anneal::QuboProblem problem(q, kernel);
        anneal::SaWalk w = fixed ? anneal::SaWalk(problem, x0, params,
                                                  util::Rng(23), 12.0)
                                 : anneal::SaWalk(problem, x0, params,
                                                  util::Rng(23));
        w.run_to(params.iterations);
        return w.take_result();
      };
      const anneal::SaResult dense = walk(qubo::Kernel::kDense);
      const anneal::SaResult sparse = walk(qubo::Kernel::kSparse);
      ASSERT_EQ(dense.evaluated, params.iterations);
      ASSERT_GT(dense.accepted, 0u);
      expect_identical(dense, sparse);
    }
  }
}

TEST(SparseKernel, MdkpConstraintIncidenceUnderCheckIncremental) {
  // The acceptance shape: >= 8 inequality rows where each variable
  // appears in only 2, solved on hardware filters with every incremental
  // trial/commit cross-checked against a full recomputation; the
  // density-25 profit matrix runs the sparse kernel.
  cop::MdkpGeneratorParams gp;
  gp.n = 28;
  gp.dimensions = 8;
  gp.density_percent = 25;
  gp.incident_dimensions = 2;
  const auto inst = cop::generate_mdkp(gp, 41);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimConfig checked = solver_config(500);
  checked.check_incremental = true;
  core::HyCimSolver solver(form, checked);
  ASSERT_NE(solver.filter_bank(), nullptr);
  ASSERT_EQ(solver.filter_bank()->size(), 8u);
  // Support compression took: every filter sees a strict subset of the
  // variables, and each variable is wired into exactly 2 filters.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_LT(solver.filter_bank()->support(i).size(), inst.n);
  }
  for (std::size_t k = 0; k < inst.n; ++k) {
    std::size_t wired = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      if (solver.filter_bank()->touches(i, k)) ++wired;
    }
    EXPECT_EQ(wired, 2u) << "variable " << k;
  }
  util::Rng rng(43);
  const auto x0 = cop::random_feasible(inst, rng);
  core::SolveResult result;
  ASSERT_NO_THROW(result = solver.solve(x0, 47));
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(inst.feasible(result.best_x));
  EXPECT_EQ(result.kernel, qubo::Kernel::kSparse);
}

TEST(SparseKernel, BatchRunsRecordTheKernel) {
  const auto inst = qkp(30, 25, 67);
  const auto form = cop::to_constrained_form(inst);
  runtime::BatchParams params;
  params.restarts = 4;
  params.threads = 1;
  params.seed = 71;
  const auto batch = runtime::solve_batch(
      form, solver_config(200),
      [&](util::Rng& rng) { return cop::random_feasible(inst, rng); },
      params);
  EXPECT_EQ(batch.kernel, qubo::Kernel::kSparse);
  for (const auto& run : batch.runs) {
    EXPECT_EQ(run.kernel, qubo::Kernel::kSparse);
  }
}

}  // namespace
}  // namespace hycim
