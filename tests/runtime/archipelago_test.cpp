// The archipelago batch protocol: one logical solve spanning a run ×
// island × replica task tree.  solve_batch on an archipelago config must
// be bit-identical — per-run best_x, island stats, and the
// migration/resample traces — at any thread count and under adversarial
// executors, and worth its keep:
// equal-QUBO-budget islands beat-or-match both replica exchange and
// best-of-N SA on a seeded hard (dense) QKP.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <random>
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

/// A mixed-roster archipelago: tempering and plain-SA islands alternate,
/// so the schedule exercises both island kinds plus migration/resampling.
core::HyCimConfig archipelago_config(std::size_t iterations,
                                     std::size_t islands = 3,
                                     std::size_t migration_interval = 50) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.filter_mode = core::FilterMode::kSoftware;
  anneal::ArchipelagoParams ap;
  ap.islands = islands;
  anneal::TemperingParams ladder;
  ladder.replicas = 3;
  ladder.exchange_interval = 10;
  ap.roster = {ladder, anneal::SaSearch{}};
  ap.migration_interval = migration_interval;
  ap.stagnation_epochs = 2;
  config.search = ap;
  return config;
}

InitFn feasible_init(const cop::QkpInstance& inst) {
  return [&inst](util::Rng& rng) { return cop::random_feasible(inst, rng); };
}

void expect_island_batches_identical(const BatchResult& a,
                                     const BatchResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_run, b.best_run);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_x, b.runs[r].best_x) << "run " << r;
    EXPECT_EQ(a.runs[r].best_energy, b.runs[r].best_energy) << "run " << r;
    EXPECT_EQ(a.runs[r].replicas, b.runs[r].replicas) << "run " << r;
    EXPECT_EQ(a.runs[r].islands, b.runs[r].islands) << "run " << r;
    EXPECT_EQ(a.runs[r].exchange_trace, b.runs[r].exchange_trace)
        << "run " << r;
    EXPECT_EQ(a.runs[r].migration_trace, b.runs[r].migration_trace)
        << "run " << r;
    EXPECT_EQ(a.runs[r].resample_trace, b.runs[r].resample_trace)
        << "run " << r;
  }
  EXPECT_EQ(a.total_exchanges_proposed, b.total_exchanges_proposed);
  EXPECT_EQ(a.total_migrations_proposed, b.total_migrations_proposed);
  EXPECT_EQ(a.total_migrations_accepted, b.total_migrations_accepted);
  EXPECT_EQ(a.total_resamples, b.total_resamples);
  EXPECT_EQ(a.total_respaces, b.total_respaces);
}

TEST(Archipelago, BitIdenticalAcrossThreadCounts) {
  // The acceptance bar: 1, 2, and max hardware threads reproduce each
  // other's island batches bit for bit — best_x, island stats, *and* the
  // migration and resample traces.
  const auto inst = qkp_instance(1, 24);
  const auto config = archipelago_config(400);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 3;
  params.seed = 42;

  params.threads = 1;
  const auto one = solve_batch(form, config, init, params);
  params.threads = 2;
  const auto two = solve_batch(form, config, init, params);
  params.threads = std::max(1u, std::thread::hardware_concurrency());
  const auto max_threads = solve_batch(form, config, init, params);

  expect_island_batches_identical(one, two);
  expect_island_batches_identical(one, max_threads);
  // The islands actually migrated and the tempering ladders exchanged.
  EXPECT_GT(one.total_migrations_proposed, 0u);
  EXPECT_GT(one.total_exchanges_proposed, 0u);
  for (const auto& run : one.runs) {
    EXPECT_EQ(run.islands.size(), 3u);
    EXPECT_EQ(run.replicas.size(), 7u);  // PT3 + SA + PT3
    EXPECT_FALSE(run.migration_trace.empty());
  }
}

TEST(Archipelago, ChaosExecutorsReproduceTheMigrationSchedule) {
  // The strategy seam under adversarial scheduling: pathological
  // executors driving one island solve must reproduce the serial solve's
  // migration decisions, resample events, and island stats bit for bit.
  const auto inst = qkp_instance(5, 16);
  const auto form = cop::to_constrained_form(inst);
  const core::HyCimSolver prototype(form, archipelago_config(300, 3, 30));
  util::Rng rng(99);
  const qubo::BitVector x0 = cop::random_feasible(inst, rng);

  const auto solve_with = [&](const anneal::Executor* executor) {
    core::HyCimSolver solver(prototype, 1);
    return executor ? solver.solve(x0, 1234, *executor)
                    : solver.solve(x0, 1234);
  };
  const core::SolveResult serial = solve_with(nullptr);
  EXPECT_FALSE(serial.migration_trace.empty());

  const anneal::Executor lifo = [](std::size_t count,
                                   const anneal::Task& task) {
    for (std::size_t i = count; i > 0; --i) task(i - 1);
  };
  const auto shuffled = [](std::uint32_t seed) {
    return anneal::Executor([seed](std::size_t count,
                                   const anneal::Task& task) {
      std::vector<std::size_t> order(count);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::mt19937 gen(seed);
      std::shuffle(order.begin(), order.end(), gen);
      for (const std::size_t i : order) task(i);
    });
  };
  const anneal::Executor single_stealer = [](std::size_t count,
                                             const anneal::Task& task) {
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    const auto claim = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          task(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      }
    };
    std::thread stealer(claim);
    claim();
    stealer.join();
    if (failure) std::rethrow_exception(failure);
  };

  const std::vector<anneal::Executor> chaos = {lifo, shuffled(7), shuffled(8),
                                               single_stealer};
  for (std::size_t c = 0; c < chaos.size(); ++c) {
    const core::SolveResult result = solve_with(&chaos[c]);
    EXPECT_EQ(result.best_x, serial.best_x) << "executor " << c;
    EXPECT_EQ(result.best_energy, serial.best_energy) << "executor " << c;
    EXPECT_EQ(result.islands, serial.islands) << "executor " << c;
    EXPECT_EQ(result.migration_trace, serial.migration_trace)
        << "executor " << c;
    EXPECT_EQ(result.resample_trace, serial.resample_trace)
        << "executor " << c;
    EXPECT_EQ(result.exchange_trace, serial.exchange_trace)
        << "executor " << c;
    EXPECT_EQ(result.respaces, serial.respaces) << "executor " << c;
    ASSERT_EQ(result.replicas.size(), serial.replicas.size());
    for (std::size_t r = 0; r < serial.replicas.size(); ++r) {
      EXPECT_EQ(result.replicas[r].evaluated, serial.replicas[r].evaluated)
          << "executor " << c << " replica " << r;
    }
  }
}

TEST(Archipelago, HardwareFiltersStayThreadCountInvariant) {
  // Per-replica comparator decision streams fork from the run seed, so
  // device noise cannot leak scheduling into migration decisions.
  const auto inst = qkp_instance(2, 16);
  core::HyCimConfig config = archipelago_config(200, 2, 40);
  config.filter_mode = core::FilterMode::kHardware;
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;
  params.seed = 7;

  params.threads = 1;
  const auto serial = solve_batch(form, config, init, params);
  params.threads = 8;
  const auto wide = solve_batch(form, config, init, params);
  expect_island_batches_identical(serial, wide);
}

TEST(Archipelago, PrototypeOverloadMatchesColdFabrication) {
  // The service layer's cached-chip path holds for islands too.
  const auto inst = qkp_instance(4, 16);
  core::HyCimConfig config = archipelago_config(250, 2, 50);
  config.filter_mode = core::FilterMode::kHardware;
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;
  params.seed = 13;
  const auto cold = solve_batch(form, config, init, params);
  const core::HyCimSolver prototype(form, config);
  const auto warm = solve_batch(prototype, init, params);
  expect_island_batches_identical(cold, warm);
}

TEST(Archipelago, EqualBudgetBeatsOrMatchesTemperingAndSaOnAPanel) {
  // The tentpole's reason to exist, on the rugged end of the paper suite
  // (80 items, 100% density), gated statistically like fig8: cumulative
  // best profit over a 4-instance panel rather than a single knife-edge
  // draw.  Equal QUBO budget three ways per instance: 16 SA restarts, 4
  // tempered ensembles of 4 replicas, and 4 archipelago restarts of
  // 2 islands × 2-replica ladders — 16 walks × 800 iterations and the
  // same 4-start diversity each way.  Migration + resampling on top of
  // the ladders must pay for itself in aggregate.
  long long sa_total = 0, pt_total = 0, island_total = 0;
  for (const std::uint64_t instance_seed : {8u, 11u, 17u, 29u}) {
    const auto inst = qkp_instance(instance_seed, 80, 100);
    const auto form = cop::to_constrained_form(inst);
    const auto init = feasible_init(inst);

    core::HyCimConfig sa_config;
    sa_config.sa.iterations = 800;
    sa_config.filter_mode = core::FilterMode::kSoftware;
    BatchParams sa_params;
    sa_params.restarts = 16;
    sa_params.seed = 9;
    const auto sa = solve_batch(form, sa_config, init, sa_params);

    core::HyCimConfig pt_config = sa_config;
    anneal::TemperingParams tempering;
    tempering.replicas = 4;
    pt_config.search = tempering;
    BatchParams pt_params = sa_params;
    pt_params.restarts = 4;
    const auto pt = solve_batch(form, pt_config, init, pt_params);

    core::HyCimConfig island_config = sa_config;
    anneal::ArchipelagoParams ap;
    ap.islands = 2;
    anneal::TemperingParams half_ladder;
    half_ladder.replicas = 2;
    ap.roster = {half_ladder};
    ap.migration_interval = 25;
    ap.stagnation_epochs = 2;
    island_config.search = ap;
    BatchParams island_params = sa_params;
    island_params.restarts = 4;
    const auto island = solve_batch(form, island_config, init, island_params);

    // Identical total QUBO-computation budget by construction.
    EXPECT_EQ(sa.total_evaluated, pt.total_evaluated);
    EXPECT_EQ(sa.total_evaluated, island.total_evaluated);
    long long sa_profit = 0, pt_profit = 0, island_profit = 0;
    for (const auto& r : sa.runs) {
      if (r.feasible) {
        sa_profit = std::max(sa_profit, inst.total_profit(r.best_x));
      }
    }
    for (const auto& r : pt.runs) {
      if (r.feasible) {
        pt_profit = std::max(pt_profit, inst.total_profit(r.best_x));
      }
    }
    for (const auto& r : island.runs) {
      if (r.feasible) {
        island_profit = std::max(island_profit, inst.total_profit(r.best_x));
      }
    }
    sa_total += sa_profit;
    pt_total += pt_profit;
    island_total += island_profit;
  }
  EXPECT_GE(island_total, sa_total);
  EXPECT_GE(island_total, pt_total);
}

TEST(Archipelago, RejectsDegenerateParams) {
  const auto inst = qkp_instance(6, 12);
  const auto form = cop::to_constrained_form(inst);
  const auto init = feasible_init(inst);
  BatchParams params;
  params.restarts = 2;

  // Degenerate island knobs are rejected at solve entry.
  core::HyCimConfig bad = archipelago_config(50);
  std::get<anneal::ArchipelagoParams>(bad.search).islands = 1;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
  bad = archipelago_config(50);
  std::get<anneal::ArchipelagoParams>(bad.search).migration_interval = 0;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
  bad = archipelago_config(50);
  std::get<anneal::ArchipelagoParams>(bad.search).target_acceptance = 1.5;
  EXPECT_THROW(solve_batch(form, bad, init, params), std::invalid_argument);
}

}  // namespace
}  // namespace hycim::runtime
