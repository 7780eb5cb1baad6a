// The persistent work-stealing executor: exactly-once execution, caller
// participation, budget caps across nested task trees, zero steady-state
// thread spawns, exception propagation, observability counters — and the
// scheduling-independence (chaos) half of the determinism contract.
#include "runtime/executor_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_budget.hpp"
#include "cop/adapters.hpp"
#include "runtime/batch_runner.hpp"

namespace hycim::runtime {
namespace {

// ---------------------------------------------------------------------------
// Adversarial executors: every one satisfies the anneal::Executor contract
// (each index exactly once, return after all complete) in a pathological
// order, so any result difference vs the pool or the serial loop is a
// determinism bug in the *tasks*, which is exactly what must never exist.

/// Reverse order on the calling thread.
anneal::Executor lifo_executor() {
  return [](std::size_t count, const anneal::Task& task) {
    for (std::size_t i = count; i > 0; --i) task(i - 1);
  };
}

/// Seeded-random order on the calling thread.
anneal::Executor shuffled_executor(std::uint32_t seed) {
  return [seed](std::size_t count, const anneal::Task& task) {
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937 gen(seed);
    std::shuffle(order.begin(), order.end(), gen);
    for (const std::size_t i : order) task(i);
  };
}

/// One stealer thread races the caller for every index.
anneal::Executor single_stealer_executor() {
  return [](std::size_t count, const anneal::Task& task) {
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
}

// ---------------------------------------------------------------------------
// Pool mechanics.

TEST(ExecutorPool, ExecutesEveryIndexExactlyOnce) {
  ExecutorPool pool(4);
  std::vector<std::atomic<int>> hits(97);
  pool.run(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.stats().tasks_executed, hits.size());
}

TEST(ExecutorPool, SerialWidthRunsInlineInOrderAndSpawnsNothing) {
  ExecutorPool pool(8);
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.run(
      16,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);  // unsynchronized on purpose: must be serial
      },
      /*width=*/1);
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.threads_spawned, 0u);
  EXPECT_EQ(stats.dispatches, 0u);
  EXPECT_EQ(stats.inline_runs, 1u);
}

TEST(ExecutorPool, SingleTaskRunsInlineAndSpawnsNothing) {
  ExecutorPool pool(8);
  bool ran = false;
  pool.run(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.stats().threads_spawned, 0u);
}

TEST(ExecutorPool, BudgetOneNeverSpawnsEvenForWideRuns) {
  ExecutorPool pool(1);
  std::atomic<int> ran{0};
  pool.run(32, [&](std::size_t) { ran.fetch_add(1); }, /*width=*/16);
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(pool.stats().threads_spawned, 0u);
}

TEST(ExecutorPool, CallerParticipatesAndNeverDeadlocksOnBusyWorkers) {
  // Budget 2 = one worker; pin it inside a posted job.  run() must still
  // complete — entirely on the calling thread — because the caller always
  // participates in its own group.  This is the progress guarantee that
  // makes blocking fork-joins safe on a saturated pool.
  ExecutorPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::promise<void> occupied;
  pool.post([gate, &occupied] {
    occupied.set_value();
    gate.wait();
  });
  occupied.get_future().wait();  // the only worker is now pinned
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.run(8, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(on_caller.load(), 8);
  release.set_value();
  EXPECT_EQ(pool.stats().threads_spawned, 1u);
}

TEST(ExecutorPool, BudgetCapsConcurrencyAcrossTheWholeTree) {
  // 4 top-level tasks × 4 child tasks under a width-2 tree: no more than
  // 2 tasks of the tree may ever overlap, nested fan-out included.
  ExecutorPool pool(8);
  std::atomic<int> current{0};
  std::atomic<int> peak{0};
  const auto occupy = [&] {
    const int now = current.fetch_add(1, std::memory_order_relaxed) + 1;
    int seen = peak.load(std::memory_order_relaxed);
    while (now > seen &&
           !peak.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    current.fetch_sub(1, std::memory_order_relaxed);
  };
  pool.run(
      4,
      [&](std::size_t) {
        pool.run(4, [&](std::size_t) { occupy(); }, /*width=*/0);
      },
      /*width=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ExecutorPool, NestedWidthNarrowsButNeverWidens) {
  // A width-1 subtree stays serial even under a wide ambient budget, and
  // its own descendants inherit the serial cap.
  ExecutorPool pool(8);
  std::atomic<int> current{0};
  std::atomic<int> peak{0};
  pool.run(
      2,
      [&](std::size_t) {
        const std::thread::id outer = std::this_thread::get_id();
        pool.run(
            8,
            [&, outer](std::size_t) {
              EXPECT_EQ(std::this_thread::get_id(), outer);
              pool.run(4, [&, outer](std::size_t) {
                EXPECT_EQ(std::this_thread::get_id(), outer);
              });
            },
            /*width=*/1);
        const int now = current.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        current.fetch_sub(1);
      },
      /*width=*/2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ExecutorPool, ZeroThreadSpawnsInSteadyState) {
  // The replacement guarantee for the per-call std::thread vectors: after
  // the first parallel dispatch warms the pool, further dispatches
  // construct no threads at all.
  ExecutorPool pool(4);
  std::atomic<int> sink{0};
  pool.run(16, [&](std::size_t) { sink.fetch_add(1); });  // warmup
  const unsigned warm = pool.stats().threads_spawned;
  EXPECT_LE(warm, 3u);
  for (int round = 0; round < 50; ++round) {
    pool.run(16, [&](std::size_t) { sink.fetch_add(1); });
  }
  EXPECT_EQ(pool.stats().threads_spawned, warm);
  EXPECT_EQ(pool.stats().tasks_executed, 51u * 16u);
}

TEST(ExecutorPool, ExceptionPropagatesAndCancelsRemainingTasks) {
  ExecutorPool pool(2);
  std::atomic<int> executed{0};
  // The non-throwing tasks carry a small sleep so the race is fair: free
  // tasks let the other claimant drain the whole group in the time one
  // slow exception unwind takes (TSan instruments unwinding heavily),
  // and "cancellation saved nothing" would be indistinguishable from a
  // real cancellation bug.  Priced at 50us/task, a broken cancel flag
  // still fails loudly (~25ms to run all 1000) while a working one wins
  // with a ~1000x margin.
  EXPECT_THROW(pool.run(1000,
                        [&](std::size_t i) {
                          executed.fetch_add(1, std::memory_order_relaxed);
                          if (i == 3) throw std::runtime_error("boom");
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(50));
                        }),
               std::runtime_error);
  // Cancellation is prompt, not exact: in-flight claims may finish, the
  // rest are skipped.
  EXPECT_LT(executed.load(), 1000);
  // The pool stays usable after a failed group.
  std::atomic<int> after{0};
  pool.run(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ExecutorPool, SuppressedSecondaryExceptionsAreCounted) {
  // The first-exception protocol rethrows one failure per group; any
  // concurrent second failure used to vanish without a trace.  Two tasks
  // rendezvous on a barrier so BOTH are guaranteed in flight before
  // either throws — exactly one lands in the group, the other must show
  // up in suppressed_exceptions.
  ExecutorPool pool(2);
  std::atomic<int> arrived{0};
  EXPECT_THROW(
      pool.run(2,
               [&](std::size_t i) {
                 arrived.fetch_add(1, std::memory_order_relaxed);
                 // Bounded spin: both claimants are live (budget 2, two
                 // tasks), so the rendezvous resolves immediately; the cap
                 // only guards against a scheduler stall turning into a
                 // hang.
                 for (long spin = 0;
                      arrived.load(std::memory_order_relaxed) < 2 &&
                      spin < 200'000'000L;
                      ++spin) {
                 }
                 throw std::runtime_error("task " + std::to_string(i));
               }),
      std::runtime_error);
  EXPECT_EQ(pool.stats().suppressed_exceptions, 1u);
}

TEST(ExecutorPool, PostRunsJobsOnWorkersEvenAtBudgetOne) {
  ExecutorPool pool(1);
  std::promise<std::thread::id> ran;
  pool.post([&] { ran.set_value(std::this_thread::get_id()); });
  const std::thread::id worker = ran.get_future().get();
  EXPECT_NE(worker, std::this_thread::get_id());
  EXPECT_EQ(pool.stats().posted, 1u);
  EXPECT_EQ(pool.stats().threads_spawned, 1u);
}

TEST(ExecutorPool, StatsCountDispatchesStealsAndUtilization) {
  ExecutorPool pool(4);
  for (int round = 0; round < 4; ++round) {
    pool.run(32, [](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.budget, 4u);
  EXPECT_EQ(stats.dispatches, 4u);
  EXPECT_EQ(stats.tasks_executed, 4u * 32u);
  EXPECT_EQ(stats.queue_depth, 0u);  // all groups drained
  EXPECT_GT(stats.steals, 0u);       // workers claimed via the queues
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GT(stats.up_seconds, 0.0);
  EXPECT_GE(stats.utilization, 0.0);
  EXPECT_LE(stats.utilization, 1.0 + 1e-9);
}

TEST(ExecutorPool, GlobalPoolTracksTheThreadBudgetKnob) {
  const unsigned saved = core::requested_thread_budget();
  core::set_thread_budget(3);
  EXPECT_EQ(ExecutorPool::global().budget(), 3u);
  ExecutorPool private_pool(0);
  EXPECT_EQ(private_pool.budget(), 3u);
  core::set_thread_budget(saved);
}

// ---------------------------------------------------------------------------
// Chaos determinism: pathological schedules reproduce the serial batch.

RunRecord pure_record(std::size_t run, util::Rng& rng) {
  RunRecord r;
  r.best_energy = -static_cast<double>(rng.next_u64() % 1000) -
                  static_cast<double>(run) * 0.5;
  r.feasible = (rng.next_u64() & 1) == 0;
  r.best_x = {static_cast<std::uint8_t>(run & 0xff),
              static_cast<std::uint8_t>(rng.next_u64() & 0xff)};
  r.evaluated = static_cast<std::size_t>(rng.next_u64() % 100);
  r.proposed = r.evaluated + run;
  return r;
}

void expect_batches_identical(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_run, b.best_run);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_evaluated, b.total_evaluated);
  EXPECT_EQ(a.total_proposed, b.total_proposed);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].run, b.runs[r].run) << "run " << r;
    EXPECT_EQ(a.runs[r].best_x, b.runs[r].best_x) << "run " << r;
    EXPECT_EQ(a.runs[r].best_energy, b.runs[r].best_energy) << "run " << r;
    EXPECT_EQ(a.runs[r].evaluated, b.runs[r].evaluated) << "run " << r;
  }
}

TEST(ExecutorPoolChaos, RunBatchIsScheduleIndependent) {
  BatchParams params;
  params.restarts = 33;
  params.seed = 77;
  params.success_energy = -500.0;
  params.threads = 1;
  const BatchResult serial = run_batch(params, pure_record);
  params.threads = 0;
  expect_batches_identical(serial, run_batch(params, pure_record));
  expect_batches_identical(serial,
                           run_batch(params, pure_record, lifo_executor()));
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    expect_batches_identical(
        serial, run_batch(params, pure_record, shuffled_executor(seed)));
  }
  expect_batches_identical(
      serial, run_batch(params, pure_record, single_stealer_executor()));
}

core::HyCimConfig tempered_config(std::size_t iterations) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.filter_mode = core::FilterMode::kSoftware;
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  tempering.exchange_interval = 10;
  config.search = tempering;
  return config;
}

TEST(ExecutorPoolChaos, TemperedSolveIsScheduleIndependent) {
  // The strategy seam: one tempered solve's replica segments executed by
  // adversarial executors must reproduce the serial solve bit for bit —
  // best_x, per-replica counters, and the exchange trace.
  cop::QkpGeneratorParams gen;
  gen.n = 16;
  gen.density_percent = 50;
  const auto inst = cop::generate_qkp(gen, 5);
  const auto form = cop::to_constrained_form(inst);
  const core::HyCimSolver prototype(form, tempered_config(300));
  util::Rng rng(99);
  const qubo::BitVector x0 = cop::random_feasible(inst, rng);

  // A fresh clone per solve, exactly like the batch protocols, so every
  // call starts from the same programmed state.
  const auto solve_with = [&](const anneal::Executor* executor) {
    core::HyCimSolver solver(prototype, 1);
    return executor ? solver.solve(x0, 1234, *executor)
                    : solver.solve(x0, 1234);
  };
  const core::SolveResult serial = solve_with(nullptr);
  const std::vector<anneal::Executor> chaos = {
      lifo_executor(), shuffled_executor(7), shuffled_executor(8),
      single_stealer_executor()};
  for (std::size_t c = 0; c < chaos.size(); ++c) {
    const core::SolveResult result = solve_with(&chaos[c]);
    EXPECT_EQ(result.best_x, serial.best_x) << "executor " << c;
    EXPECT_EQ(result.best_energy, serial.best_energy) << "executor " << c;
    EXPECT_EQ(result.exchanges_accepted, serial.exchanges_accepted);
    ASSERT_EQ(result.exchange_trace.size(), serial.exchange_trace.size());
    for (std::size_t e = 0; e < serial.exchange_trace.size(); ++e) {
      EXPECT_EQ(result.exchange_trace[e].accepted,
                serial.exchange_trace[e].accepted)
          << "executor " << c << " event " << e;
    }
    ASSERT_EQ(result.replicas.size(), serial.replicas.size());
    for (std::size_t r = 0; r < serial.replicas.size(); ++r) {
      EXPECT_EQ(result.replicas[r].evaluated, serial.replicas[r].evaluated)
          << "executor " << c << " replica " << r;
    }
  }
}

TEST(ExecutorPoolChaos, TwoLevelTemperedBatchMatchesSerialBatch) {
  // End to end through solve_batch: the two-level run×replica tree at
  // full width vs the fully serial tree.
  cop::QkpGeneratorParams gen;
  gen.n = 14;
  gen.density_percent = 40;
  const auto inst = cop::generate_qkp(gen, 9);
  const auto form = cop::to_constrained_form(inst);
  const core::HyCimSolver prototype(form, tempered_config(200));
  const auto init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };
  BatchParams params;
  params.restarts = 8;
  params.seed = 31;
  params.threads = 1;
  const BatchResult serial = solve_batch(prototype, init, params);
  params.threads = 0;
  const BatchResult wide = solve_batch(prototype, init, params);
  expect_batches_identical(serial, wide);
  ASSERT_EQ(serial.runs.size(), wide.runs.size());
  for (std::size_t r = 0; r < serial.runs.size(); ++r) {
    ASSERT_EQ(serial.runs[r].exchange_trace.size(),
              wide.runs[r].exchange_trace.size());
    for (std::size_t e = 0; e < serial.runs[r].exchange_trace.size(); ++e) {
      EXPECT_EQ(serial.runs[r].exchange_trace[e].accepted,
                wide.runs[r].exchange_trace[e].accepted)
          << "run " << r << " event " << e;
    }
  }
}

// ---------------------------------------------------------------------------
// The measured cross-run win (ISSUE 7 acceptance): two-level scheduling
// must beat the old serial-over-runs scheduler ≥2x on a big enough host.

TEST(ExecutorPool, CrossRunTemperedSpeedupOnManyCoreHosts) {
  if (std::getenv("HYCIM_PERF_TESTS") == nullptr) {
    GTEST_SKIP() << "timing test; set HYCIM_PERF_TESTS=1 on a quiet "
                    ">=16-thread host to run";
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 16) {
    GTEST_SKIP() << "needs >= 16 hardware threads, have " << cores;
  }
  cop::QkpGeneratorParams gen;
  gen.n = 100;
  gen.density_percent = 50;
  const auto inst = cop::generate_qkp(gen, 17);
  const auto form = cop::to_constrained_form(inst);
  core::HyCimConfig config = tempered_config(8000);
  std::get<anneal::TemperingParams>(config.search).exchange_interval = 200;
  const core::HyCimSolver prototype(form, config);
  const auto init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };
  BatchParams params;
  params.restarts = 16;
  params.seed = 3;

  // The old scheduler, emulated exactly: runs strictly serial on the
  // caller, each run's R replica segments fanned R-wide on the pool.
  const anneal::Executor serial_runs = [](std::size_t count,
                                          const anneal::Task& task) {
    for (std::size_t i = 0; i < count; ++i) task(i);
  };
  const auto old_start = std::chrono::steady_clock::now();
  const BatchResult old_sched = run_batch(params, /*fn=*/
                                          [&](std::size_t, util::Rng& rng) {
                                            std::uint64_t ds = rng.next_u64();
                                            if (ds == 0) ds = 1;
                                            core::HyCimSolver solver(prototype,
                                                                     ds);
                                            const qubo::BitVector x0 =
                                                init(rng);
                                            core::SolveResult sr = solver.solve(
                                                x0, rng.next_u64(),
                                                ExecutorPool::global()
                                                    .executor(4));
                                            RunRecord rec;
                                            rec.best_x = std::move(sr.best_x);
                                            rec.best_energy = sr.best_energy;
                                            rec.feasible = sr.feasible;
                                            return rec;
                                          },
                                          serial_runs);
  const double old_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - old_start)
                              .count();

  const auto new_start = std::chrono::steady_clock::now();
  const BatchResult two_level = solve_batch(prototype, init, params);
  const double new_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - new_start)
                              .count();

  ASSERT_EQ(old_sched.runs.size(), two_level.runs.size());
  for (std::size_t r = 0; r < old_sched.runs.size(); ++r) {
    EXPECT_EQ(old_sched.runs[r].best_x, two_level.runs[r].best_x);
    EXPECT_EQ(old_sched.runs[r].best_energy, two_level.runs[r].best_energy);
  }
  EXPECT_GE(old_wall / new_wall, 2.0)
      << "serial-over-runs " << old_wall << "s vs two-level " << new_wall
      << "s";
}

}  // namespace
}  // namespace hycim::runtime
