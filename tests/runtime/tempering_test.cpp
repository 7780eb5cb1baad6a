// The tempered batch protocol: one logical solve spanning multiple
// threads.  solve_batch on a tempering config must be bit-identical —
// per-run best_x, replica counters, and exchange traces — at any thread
// count, equivalent to the serial strategy dispatch, and worth its keep:
// equal-QUBO-budget tempering beats-or-matches best-of-N SA on a seeded
// hard (dense) QKP.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "cop/adapters.hpp"
#include "runtime/batch_runner.hpp"

namespace hycim::runtime {
namespace {

cop::QkpInstance qkp_instance(std::uint64_t seed, std::size_t n,
                              int density = 50) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = density;
  return cop::generate_qkp(params, seed);
}

core::HyCimConfig tempering_config(std::size_t iterations,
                                   std::size_t replicas = 4) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.filter_mode = core::FilterMode::kSoftware;
  anneal::TemperingParams tempering;
  tempering.replicas = replicas;
  config.search = tempering;
  return config;
}

InitFn feasible_init(const cop::QkpInstance& inst) {
  return [&inst](util::Rng& rng) { return cop::random_feasible(inst, rng); };
}

void expect_tempered_batches_identical(const BatchResult& a,
                                       const BatchResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_run, b.best_run);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_x, b.runs[r].best_x) << "run " << r;
    EXPECT_EQ(a.runs[r].best_energy, b.runs[r].best_energy);
    EXPECT_EQ(a.runs[r].evaluated, b.runs[r].evaluated);
    EXPECT_EQ(a.runs[r].replicas, b.runs[r].replicas) << "run " << r;
    EXPECT_EQ(a.runs[r].exchange_trace, b.runs[r].exchange_trace)
        << "run " << r;
  }
  EXPECT_EQ(a.total_exchanges_proposed, b.total_exchanges_proposed);
  EXPECT_EQ(a.total_exchanges_accepted, b.total_exchanges_accepted);
}

TEST(Tempering, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar: 1, 2, and max hardware threads reproduce each
  // other's tempered batches bit for bit — best_x *and* exchange traces.
  const auto inst = qkp_instance(1, 24);
  const auto config = tempering_config(400);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 4;
  params.seed = 42;

  params.threads = 1;
  const auto one = solve_batch(form, config, init, params);
  params.threads = 2;
  const auto two = solve_batch(form, config, init, params);
  params.threads = std::max(1u, std::thread::hardware_concurrency());
  const auto max_threads = solve_batch(form, config, init, params);

  expect_tempered_batches_identical(one, two);
  expect_tempered_batches_identical(one, max_threads);
  // The walks actually tempered: barriers happened and the trace shows
  // them deterministically.
  EXPECT_GT(one.total_exchanges_proposed, 0u);
  for (const auto& run : one.runs) {
    EXPECT_EQ(run.replicas.size(), 4u);
    EXPECT_FALSE(run.exchange_trace.empty());
  }
}

TEST(Tempering, HardwareFiltersStayThreadCountInvariant) {
  // Per-replica comparator decision streams are forked from the run seed,
  // so device-noise stochasticity cannot leak scheduling into results.
  const auto inst = qkp_instance(2, 16);
  core::HyCimConfig config = tempering_config(300, 3);
  config.filter_mode = core::FilterMode::kHardware;
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 3;
  params.seed = 7;

  params.threads = 1;
  const auto serial = solve_batch(form, config, init, params);
  params.threads = 8;
  const auto wide = solve_batch(form, config, init, params);
  expect_tempered_batches_identical(serial, wide);
}

TEST(Tempering, RunsAreIndependentOfEachOther) {
  // Forked run streams: adding tempered restarts never changes earlier
  // ensembles.
  const auto inst = qkp_instance(3, 20);
  const auto config = tempering_config(200);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;
  params.seed = 5;
  const auto small = solve_batch(form, config, init, params);
  params.restarts = 5;
  const auto large = solve_batch(form, config, init, params);
  for (std::size_t r = 0; r < small.runs.size(); ++r) {
    EXPECT_EQ(small.runs[r].best_x, large.runs[r].best_x);
    EXPECT_EQ(small.runs[r].exchange_trace, large.runs[r].exchange_trace);
  }
}

TEST(Tempering, PrototypeOverloadMatchesColdFabrication) {
  // The service layer's cached-chip path holds for tempering too.
  const auto inst = qkp_instance(4, 16);
  core::HyCimConfig config = tempering_config(250, 3);
  config.filter_mode = core::FilterMode::kHardware;
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;
  params.seed = 13;
  const auto cold = solve_batch(form, config, init, params);
  const core::HyCimSolver prototype(form, config);
  const auto warm = solve_batch(prototype, init, params);
  expect_tempered_batches_identical(cold, warm);
}

TEST(Tempering, AggregatesReplicaAndExchangeCounters) {
  const auto inst = qkp_instance(5, 20);
  const auto config = tempering_config(300);
  const auto batch = solve_batch(cop::to_constrained_form(inst), config,
                                 feasible_init(inst),
                                 BatchParams{.restarts = 3, .seed = 2});
  std::size_t exchanges_proposed = 0, exchanges_accepted = 0;
  for (const auto& run : batch.runs) {
    // Run counters are the replica sums.
    std::size_t evaluated = 0, proposed = 0, infeasible = 0;
    for (const auto& replica : run.replicas) {
      evaluated += replica.evaluated;
      proposed += replica.proposed;
      infeasible += replica.rejected_infeasible;
    }
    EXPECT_EQ(run.evaluated, evaluated);
    EXPECT_EQ(run.proposed, proposed);
    EXPECT_EQ(run.infeasible, infeasible);
    EXPECT_EQ(run.exchange_trace.size(), run.exchanges_proposed);
    exchanges_proposed += run.exchanges_proposed;
    exchanges_accepted += run.exchanges_accepted;
  }
  EXPECT_EQ(batch.total_exchanges_proposed, exchanges_proposed);
  EXPECT_EQ(batch.total_exchanges_accepted, exchanges_accepted);
}

TEST(Tempering, EqualBudgetBeatsOrMatchesSaOnHardQkp) {
  // A seeded hard instance: 80 items at 100% profit density — the rugged
  // end of the paper suite, where one cooled walk tends to freeze into a
  // local optimum the ladder can still escape.  Equal QUBO budget: 16 SA
  // restarts vs 4 tempered ensembles of 4 replicas, 800 iterations per
  // walk either way.
  const auto inst = qkp_instance(8, 80, 100);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);

  core::HyCimConfig sa_config;
  sa_config.sa.iterations = 800;
  sa_config.filter_mode = core::FilterMode::kSoftware;
  BatchParams sa_params;
  sa_params.restarts = 16;
  sa_params.seed = 9;
  const auto sa = solve_batch(form, sa_config, init, sa_params);

  const auto pt_config = tempering_config(800, 4);
  BatchParams pt_params = sa_params;
  pt_params.restarts = 4;
  const auto pt = solve_batch(form, pt_config, init, pt_params);

  // Identical total QUBO-computation budget by construction.
  EXPECT_EQ(sa.total_evaluated, pt.total_evaluated);
  long long sa_profit = 0, pt_profit = 0;
  for (const auto& r : sa.runs) {
    if (r.feasible) sa_profit = std::max(sa_profit, inst.total_profit(r.best_x));
  }
  for (const auto& r : pt.runs) {
    if (r.feasible) pt_profit = std::max(pt_profit, inst.total_profit(r.best_x));
  }
  EXPECT_GE(pt_profit, sa_profit);
}

TEST(Tempering, RejectsDegenerateParams) {
  const auto inst = qkp_instance(6, 12);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;

  // Degenerate tempering knobs are rejected at solve entry, not solved
  // through.
  core::HyCimConfig bad = tempering_config(50);
  std::get<anneal::TemperingParams>(bad.search).replicas = 1;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
  bad = tempering_config(50);
  std::get<anneal::TemperingParams>(bad.search).exchange_interval = 0;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
  bad = tempering_config(50);
  bad.sa.swap_probability = 2.0;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
}

TEST(Tempering, SolverFacadeRunsTemperingSerially) {
  // HyCimSolver::solve honors config.search directly — the serial path the
  // pooled executor must reproduce.
  const auto inst = qkp_instance(7, 14);
  const auto config = tempering_config(200, 3);
  core::HyCimSolver solver(cop::to_constrained_form(inst), config);
  util::Rng rng(31);
  const auto x0 = cop::random_feasible(inst, rng);
  const auto result = solver.solve(x0, 17);
  EXPECT_EQ(result.replicas.size(), 3u);
  EXPECT_FALSE(result.exchange_trace.empty());
  EXPECT_EQ(result.sa.evaluated, 3u * 200u);
  // And twice the same call gives the same ensemble.
  const auto again = solver.solve(x0, 17);
  EXPECT_EQ(result.best_x, again.best_x);
  EXPECT_EQ(result.exchange_trace, again.exchange_trace);
}

}  // namespace
}  // namespace hycim::runtime
