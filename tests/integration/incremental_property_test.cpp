// Incremental-vs-full equivalence over whole solves: random trial-move
// sequences on multi-constraint forms (inequality banks + equality
// filters), every fidelity mode, both filter modes — driven through
// HyCimConfig::check_incremental, which re-derives every trial and commit
// from scratch inside the solver and throws std::logic_error on any
// divergence between the incremental pipeline and a full recomputation.
#include <gtest/gtest.h>

#include <array>

#include "anneal/moves.hpp"
#include "cop/adapters.hpp"
#include "core/hycim_solver.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

core::HyCimConfig checked_config(cim::VmvMode fidelity,
                                 core::FilterMode filter_mode,
                                 std::size_t iterations) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.fidelity = fidelity;
  config.filter_mode = filter_mode;
  config.check_incremental = true;
  return config;
}

TEST(CheckIncremental, QkpAllFidelityAndFilterModes) {
  cop::QkpGeneratorParams gp;
  gp.n = 24;
  gp.density_percent = 50;
  const auto inst = cop::generate_qkp(gp, 3);
  const auto form = cop::to_constrained_form(inst);
  for (const auto fidelity : {cim::VmvMode::kIdeal, cim::VmvMode::kQuantized,
                              cim::VmvMode::kCircuit}) {
    for (const auto filter_mode :
         {core::FilterMode::kHardware, core::FilterMode::kSoftware}) {
      // Circuit mode is O(n·bits) per step plus the O(n²) checks: keep the
      // budget small there.
      const std::size_t iterations =
          fidelity == cim::VmvMode::kCircuit ? 150 : 400;
      core::HyCimSolver solver(
          form, checked_config(fidelity, filter_mode, iterations));
      util::Rng rng(5);
      const auto x0 = cop::random_feasible(inst, rng);
      core::SolveResult result;
      ASSERT_NO_THROW(result = solver.solve(x0, 7))
          << "fidelity " << static_cast<int>(fidelity) << " filter "
          << static_cast<int>(filter_mode);
      EXPECT_TRUE(result.feasible);
    }
  }
}

TEST(CheckIncremental, MdkpMultiConstraintBank) {
  cop::MdkpGeneratorParams gp;
  gp.n = 20;
  gp.dimensions = 3;
  const auto inst = cop::generate_mdkp(gp, 11);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimSolver solver(
      form, checked_config(cim::VmvMode::kQuantized,
                           core::FilterMode::kHardware, 500));
  ASSERT_EQ(solver.filter_bank()->size(), 3u);
  util::Rng rng(13);
  const auto x0 = cop::random_feasible(inst, rng);
  core::SolveResult result;
  ASSERT_NO_THROW(result = solver.solve(x0, 17));
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(inst.feasible(result.best_x));
}

TEST(CheckIncremental, BinPackingBankPlusEqualityFilters) {
  // Bin packing exercises the full hardware stack: one inequality filter
  // per bin AND equality structure via the coloring-style one-hot QUBO.
  const auto inst = cop::generate_bin_packing(8, 20, 9, 19);
  const auto bp = cop::to_constrained_form(inst);
  core::HyCimSolver solver(
      bp.form, checked_config(cim::VmvMode::kQuantized,
                              core::FilterMode::kHardware, 400));
  ASSERT_NE(solver.filter_bank(), nullptr);
  const auto x0 = cop::encode_assignment(bp, first_fit_decreasing(inst));
  core::SolveResult result;
  ASSERT_NO_THROW(result = solver.solve(x0, 23));
  EXPECT_TRUE(inst.valid_assignment(bp.decode_assignment(result.best_x)));
}

TEST(CheckIncremental, ColoringEqualityFiltersHardwareMode) {
  // One equality filter per vertex — the window-comparator trial path.
  const auto g = cop::generate_coloring(6, 0.4, 3, 29);
  const auto cf = cop::to_constrained_form(g);
  core::HyCimSolver solver(
      cf.form, checked_config(cim::VmvMode::kQuantized,
                              core::FilterMode::kHardware, 300));
  ASSERT_NE(solver.filter_bank(), nullptr);
  ASSERT_EQ(solver.filter_bank()->size(), cf.vertices);
  std::vector<std::size_t> colors(cf.vertices, 0);
  const auto x0 = cop::encode_coloring(cf, colors);
  ASSERT_NO_THROW(solver.solve(x0, 31));
}

TEST(CheckIncremental, CheckingModeDoesNotChangeTheWalk) {
  // The cross-checks use comparator-free analog paths and noise-free
  // recomputation, so enabling them must not perturb the anneal.
  cop::QkpGeneratorParams gp;
  gp.n = 20;
  gp.density_percent = 50;
  const auto inst = cop::generate_qkp(gp, 37);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimConfig off = checked_config(
      cim::VmvMode::kQuantized, core::FilterMode::kHardware, 600);
  off.check_incremental = false;
  core::HyCimConfig on = off;
  on.check_incremental = true;
  core::HyCimSolver a(form, off), b(form, on);
  util::Rng rng(41);
  const auto x0 = cop::random_feasible(inst, rng);
  const auto ra = a.solve(x0, 43);
  const auto rb = b.solve(x0, 43);
  EXPECT_EQ(ra.best_x, rb.best_x);
  EXPECT_DOUBLE_EQ(ra.best_energy, rb.best_energy);
  EXPECT_EQ(ra.sa.proposed, rb.sa.proposed);
  EXPECT_EQ(ra.sa.rejected_infeasible, rb.sa.rejected_infeasible);
}

TEST(SolverClone, CloneSolvesBitIdenticallyToRefabrication) {
  cop::QkpGeneratorParams gp;
  gp.n = 20;
  gp.density_percent = 50;
  const auto inst = cop::generate_qkp(gp, 47);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimConfig config;
  config.sa.iterations = 500;
  config.filter_mode = core::FilterMode::kHardware;
  const core::HyCimSolver prototype(form, config);

  core::HyCimConfig reseeded = config;
  reseeded.filter.decision_seed = 4242;
  core::HyCimSolver fabricated(form, reseeded);
  core::HyCimSolver cloned(prototype, 4242);

  util::Rng rng(53);
  const auto x0 = cop::random_feasible(inst, rng);
  const auto rf = fabricated.solve(x0, 59);
  const auto rc = cloned.solve(x0, 59);
  EXPECT_EQ(rf.best_x, rc.best_x);
  EXPECT_DOUBLE_EQ(rf.best_energy, rc.best_energy);
  EXPECT_EQ(rf.sa.proposed, rc.sa.proposed);
  EXPECT_EQ(rf.sa.rejected_infeasible, rc.sa.rejected_infeasible);
}

// Random flip/swap trial/commit sequences driven directly against
// the SaProblem trial-move pipeline via two solvers: identical fabrication
// and decision streams, one consuming moves through solve() is covered
// above — here the FilterStats bookkeeping across both paths is pinned on
// a raw bank + equality pair (regression net for the counters the benches
// report).
TEST(TrialMovePipeline, StatsCountEveryTrialExactlyOnce) {
  cop::QkpGeneratorParams gp;
  gp.n = 16;
  gp.density_percent = 50;
  const auto inst = cop::generate_qkp(gp, 61);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimConfig config;
  config.sa.iterations = 400;
  config.filter_mode = core::FilterMode::kHardware;
  core::HyCimSolver solver(form, config);
  util::Rng rng(67);
  const auto x0 = cop::random_feasible(inst, rng);
  const auto r = solver.solve(x0, 71);
  // Single-constraint QKP: every proposal is judged by exactly one filter
  // (plus the T0-calibration flips which do not touch the filter).
  EXPECT_EQ(solver.filter_bank()->filter(0).stats().evaluations,
            r.sa.proposed);
  EXPECT_EQ(solver.filter_bank()->filter(0).stats().infeasible,
            r.sa.rejected_infeasible);
}

}  // namespace
}  // namespace hycim
