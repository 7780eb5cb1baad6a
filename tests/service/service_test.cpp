// The serving front door: programmed-chip cache correctness (a hit must be
// bit-identical to a cold solve), async/sync equivalence, thread-safety
// under concurrent heterogeneous submissions, LRU bounding, and request
// validation.
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/fault_injector.hpp"

#include "core/thread_budget.hpp"
#include "cop/adapters.hpp"
#include "runtime/batch_runner.hpp"
#include "service/request_hash.hpp"

namespace hycim::service {
namespace {

cop::QkpInstance qkp_instance(std::uint64_t seed, std::size_t n) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 50;
  return cop::generate_qkp(params, seed);
}

Request qkp_request(std::uint64_t instance_seed, std::size_t n,
                    std::size_t iterations = 300, std::uint64_t batch_seed = 7,
                    std::size_t restarts = 4) {
  Request request;
  request.instance = qkp_instance(instance_seed, n);
  request.config.sa.iterations = iterations;
  request.config.filter_mode = core::FilterMode::kHardware;
  request.batch.restarts = restarts;
  request.batch.seed = batch_seed;
  return request;
}

void expect_batches_equal(const runtime::BatchResult& a,
                          const runtime::BatchResult& b) {
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best_run, b.best_run);
  EXPECT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    EXPECT_EQ(a.runs[r].best_x, b.runs[r].best_x) << "run " << r;
    EXPECT_EQ(a.runs[r].best_energy, b.runs[r].best_energy);
    EXPECT_EQ(a.runs[r].evaluated, b.runs[r].evaluated);
    EXPECT_EQ(a.runs[r].proposed, b.runs[r].proposed);
    EXPECT_EQ(a.runs[r].infeasible, b.runs[r].infeasible);
  }
}

TEST(ChipKey, SensitiveToFormAndConfig) {
  const auto inst_a = qkp_instance(1, 12);
  const auto inst_b = qkp_instance(2, 12);
  const auto form_a = cop::to_constrained_form(inst_a);
  const auto form_b = cop::to_constrained_form(inst_b);
  core::HyCimConfig config;
  EXPECT_EQ(chip_key(form_a, config), chip_key(form_a, config));
  EXPECT_NE(chip_key(form_a, config), chip_key(form_b, config));

  core::HyCimConfig other = config;
  other.filter.fab_seed = config.filter.fab_seed + 1;
  EXPECT_NE(chip_key(form_a, config), chip_key(form_a, other));
  other = config;
  other.sa.iterations = config.sa.iterations + 1;
  EXPECT_NE(chip_key(form_a, config), chip_key(form_a, other));
  other = config;
  other.filter_mode = core::FilterMode::kSoftware;
  EXPECT_NE(chip_key(form_a, config), chip_key(form_a, other));
}

TEST(ChipKey, FabricationAndSolveKeysSplitCleanly) {
  // The fabrication key only moves with fab/device fields; the solve key
  // only with the schedule/strategy — so one programmed chip can serve
  // many schedules.
  const auto form = cop::to_constrained_form(qkp_instance(1, 12));
  core::HyCimConfig config;

  core::HyCimConfig schedule_only = config;
  schedule_only.sa.iterations = config.sa.iterations + 500;
  schedule_only.sa.t_end_frac = 1e-2;
  anneal::TemperingParams tempering;
  schedule_only.search = tempering;
  EXPECT_EQ(fabrication_key(form, config),
            fabrication_key(form, schedule_only));
  EXPECT_NE(solve_key(config), solve_key(schedule_only));
  EXPECT_NE(chip_key(form, config), chip_key(form, schedule_only));

  core::HyCimConfig fab_only = config;
  fab_only.filter.fab_seed = config.filter.fab_seed + 1;
  EXPECT_NE(fabrication_key(form, config), fabrication_key(form, fab_only));
  EXPECT_EQ(solve_key(config), solve_key(fab_only));

  // Tempering knob changes move the solve key (and only it).
  core::HyCimConfig ladder_a = config, ladder_b = config;
  anneal::TemperingParams tp_a, tp_b;
  tp_b.exchange_interval = tp_a.exchange_interval + 1;
  ladder_a.search = tp_a;
  ladder_b.search = tp_b;
  EXPECT_NE(solve_key(ladder_a), solve_key(ladder_b));
  EXPECT_EQ(fabrication_key(form, ladder_a), fabrication_key(form, ladder_b));
}

TEST(Service, ScheduleOnlyChangeIsChipCacheHit) {
  // ROADMAP "Serving, next steps": a resubmission that changes only the
  // solve-time schedule must reuse the cached programmed chip.
  Service service;
  Request request = qkp_request(90, 14, 200, 11);
  const Reply first = service.solve(request);
  EXPECT_FALSE(first.cache_hit);

  Request longer = request;
  longer.config.sa.iterations = 400;
  const Reply second = service.solve(longer);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.chip_key, second.chip_key);

  // Even switching the search strategy keeps the chip: tempering runs on
  // the same fabricated hardware.
  Request tempered = request;
  anneal::TemperingParams tempering;
  tempering.replicas = 3;
  tempered.config.search = tempering;
  const Reply third = service.solve(tempered);
  EXPECT_TRUE(third.cache_hit);
  ASSERT_FALSE(third.batch.runs.empty());
  EXPECT_EQ(third.batch.runs.front().replicas.size(), 3u);

  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 1u);

  // And the schedule actually changed the walk: the cached chip was reused
  // under the new schedule, not the old reply replayed.
  EXPECT_NE(first.batch.total_evaluated, second.batch.total_evaluated);
}

TEST(Service, CachedChipServesNewScheduleBitIdenticallyToColdSolve) {
  // The hit must be indistinguishable from fabricating fresh *under the
  // new schedule* — the retargeted prototype cannot leak the old one.
  Request request = qkp_request(91, 14, 200, 12);
  Request resubmission = request;
  resubmission.config.sa.iterations = 350;
  anneal::TemperingParams tempering;
  tempering.replicas = 3;
  resubmission.config.search = tempering;

  Service warm;
  warm.solve(request);                              // programs the chip
  const Reply hit = warm.solve(resubmission);       // schedule-only change
  EXPECT_TRUE(hit.cache_hit);

  Service cold;
  const Reply fresh = cold.solve(resubmission);     // fabricates for B
  EXPECT_FALSE(fresh.cache_hit);
  expect_batches_equal(hit.batch, fresh.batch);
}

TEST(Service, TemperingRequestMatchesDirectSolveBatch) {
  const auto inst = qkp_instance(92, 16);
  Request request;
  request.instance = inst;
  request.config.sa.iterations = 250;
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  request.config.search = tempering;
  request.batch.restarts = 3;
  request.batch.seed = 21;

  Service service;
  const Reply reply = service.solve(request);
  const Reply async = service.submit(request).get();
  expect_batches_equal(reply.batch, async.batch);
  for (const auto& run : reply.batch.runs) {
    EXPECT_EQ(run.replicas.size(), 4u);
    EXPECT_FALSE(run.exchange_trace.empty());
  }

  const auto direct = runtime::solve_batch(
      cop::to_constrained_form(inst), request.config,
      [&inst](util::Rng& rng) { return cop::random_feasible(inst, rng); },
      request.batch);
  EXPECT_EQ(reply.batch.best_x, direct.best_x);
  EXPECT_EQ(reply.batch.best_energy, direct.best_energy);
  EXPECT_EQ(reply.batch.total_exchanges_accepted,
            direct.total_exchanges_accepted);
}

TEST(Service, CacheHitIsBitIdenticalToColdSolve) {
  const Request request = qkp_request(3, 16);

  Service warm;
  const Reply first = warm.solve(request);
  const Reply second = warm.solve(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  expect_batches_equal(first.batch, second.batch);

  // A fresh service (nothing cached) produces the same reply again: the
  // cached prototype is interchangeable with a cold fabrication.
  Service cold;
  const Reply fresh = cold.solve(request);
  EXPECT_FALSE(fresh.cache_hit);
  expect_batches_equal(first.batch, fresh.batch);

  const auto stats = warm.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Service, ProblemReportMatchesInstanceScore) {
  const auto inst = qkp_instance(4, 14);
  Request request;
  request.instance = inst;
  request.config.sa.iterations = 400;
  request.batch.restarts = 4;
  Service service;
  const Reply reply = service.solve(request);
  EXPECT_EQ(reply.problem.kind, "qkp");
  EXPECT_EQ(reply.problem.metric, "profit");
  ASSERT_TRUE(reply.problem.feasible);
  EXPECT_TRUE(inst.feasible(reply.batch.best_x));
  EXPECT_EQ(static_cast<long long>(reply.problem.value),
            inst.total_profit(reply.batch.best_x));
}

TEST(Service, SubmitMatchesSolve) {
  Service service;
  const Request request = qkp_request(5, 16, 400, 21);
  const Reply sync = service.solve(request);
  std::future<Reply> future = service.submit(request);
  const Reply async = future.get();
  expect_batches_equal(sync.batch, async.batch);
  EXPECT_EQ(sync.problem.value, async.problem.value);
  EXPECT_EQ(sync.problem.feasible, async.problem.feasible);
}

TEST(Service, SubmitMatchesSolveAtAnyBatchThreadCount) {
  // The determinism contract end to end: worker-pool scheduling and the
  // batch's own thread fan must not leak into results.
  Request serial = qkp_request(6, 16, 400, 9);
  serial.batch.threads = 1;
  Request wide = serial;
  wide.batch.threads = 8;
  Service service(ServiceConfig{.chip_cache_capacity = 16, .workers = 4});
  const Reply a = service.solve(serial);
  const Reply b = service.submit(wide).get();
  expect_batches_equal(a.batch, b.batch);
}

TEST(Service, ConcurrentDistinctSubmissionsAreDeterministic) {
  // Many threads submitting distinct instances concurrently: every reply
  // must equal the same request solved serially on a fresh service.
  constexpr std::size_t kClients = 6;
  std::vector<Request> requests;
  requests.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    requests.push_back(qkp_request(10 + i, 14, 250, 100 + i));
  }

  Service shared(ServiceConfig{.chip_cache_capacity = 8, .workers = 3});
  std::vector<std::future<Reply>> futures(kClients);
  {
    // Submit from distinct client threads (submission itself must be
    // race-free, not just the worker pool).
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] { futures[i] = shared.submit(requests[i]); });
    }
    for (auto& c : clients) c.join();
  }

  for (std::size_t i = 0; i < kClients; ++i) {
    const Reply concurrent = futures[i].get();
    Service fresh(ServiceConfig{.chip_cache_capacity = 8, .workers = 1});
    const Reply serial = fresh.solve(requests[i]);
    expect_batches_equal(concurrent.batch, serial.batch);
  }
}

TEST(Service, ConcurrentRepeatSubmissionsShareOneChip) {
  // Hammering one instance from several threads: all replies identical,
  // and the cache ends up with exactly one entry for it.
  const Request request = qkp_request(30, 14, 250, 3);
  Service service(ServiceConfig{.chip_cache_capacity = 4, .workers = 4});
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.submit(request));
  const Reply reference = futures.front().get();
  for (std::size_t i = 1; i < futures.size(); ++i) {
    expect_batches_equal(reference.batch, futures[i].get().batch);
  }
  EXPECT_EQ(service.cache_stats().entries, 1u);
}

TEST(Service, LruEvictionBoundsTheCache) {
  Service service(ServiceConfig{.chip_cache_capacity = 2, .workers = 1});
  const Request a = qkp_request(40, 12, 150);
  const Request b = qkp_request(41, 12, 150);
  const Request c = qkp_request(42, 12, 150);

  service.solve(a);  // miss: {a}
  service.solve(b);  // miss: {b, a}
  EXPECT_TRUE(service.solve(a).cache_hit);   // hit: {a, b}
  service.solve(c);                          // miss, evicts b: {c, a}
  EXPECT_FALSE(service.solve(b).cache_hit);  // b was evicted -> miss

  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);  // b once, then a when b returned
}

TEST(Service, ZeroCapacityDisablesCaching) {
  Service service(ServiceConfig{.chip_cache_capacity = 0, .workers = 1});
  const Request request = qkp_request(50, 12, 150);
  const Reply first = service.solve(request);
  const Reply second = service.solve(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
  expect_batches_equal(first.batch, second.batch);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(Service, ClearCacheDropsPrototypesButKeepsDeterminism) {
  Service service;
  const Request request = qkp_request(51, 12, 150);
  const Reply first = service.solve(request);
  service.clear_cache();
  EXPECT_EQ(service.cache_stats().entries, 0u);
  const Reply second = service.solve(request);
  EXPECT_FALSE(second.cache_hit);
  expect_batches_equal(first.batch, second.batch);
}

TEST(Service, SolveFormCustomProblemUsesCacheToo) {
  core::ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(6);
  for (std::size_t i = 0; i < 6; ++i) {
    form.q.add(i, i, -static_cast<double>(i + 1));
  }
  form.constraints.push_back({{1, 1, 1, 1, 1, 1}, 3});
  core::HyCimConfig config;
  config.sa.iterations = 200;
  runtime::BatchParams batch;
  batch.restarts = 3;
  const auto init = [](util::Rng&) { return qubo::BitVector(6, 0); };

  Service service;
  const Reply first = service.solve_form(form, config, init, batch);
  const Reply second = service.solve_form(form, config, init, batch);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  expect_batches_equal(first.batch, second.batch);
  EXPECT_EQ(first.problem.kind, "form");
  EXPECT_EQ(first.problem.metric, "qubo_energy");
  EXPECT_TRUE(first.problem.feasible);
}

TEST(Service, RejectsDegenerateRequests) {
  Service service;
  Request request = qkp_request(60, 10);
  request.batch.restarts = 0;
  EXPECT_THROW(service.solve(request), std::invalid_argument);
  EXPECT_THROW(service.submit(request), std::invalid_argument);

  core::ConstrainedQuboForm empty;
  EXPECT_THROW(service.solve_form(empty, core::HyCimConfig{},
                                  [](util::Rng&) { return qubo::BitVector{}; },
                                  runtime::BatchParams{}),
               std::invalid_argument);
  core::ConstrainedQuboForm one;
  one.q = qubo::QuboMatrix(1);
  EXPECT_THROW(service.solve_form(one, core::HyCimConfig{}, runtime::InitFn{},
                                  runtime::BatchParams{}),
               std::invalid_argument);
}

TEST(Service, RejectsZeroExchangeAndMigrationIntervals) {
  // The trace guard divides by both intervals, so an out-of-domain search
  // must be rejected at the call site before anything reads them.
  const auto inst = qkp_instance(61, 10);
  const auto form = cop::to_constrained_form(inst);
  const runtime::InitFn init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };
  anneal::TemperingParams zero_exchange;
  zero_exchange.exchange_interval = 0;
  anneal::ArchipelagoParams zero_migration;
  zero_migration.migration_interval = 0;
  Request tempered = qkp_request(61, 10);
  tempered.config.search = zero_exchange;
  Request islands = qkp_request(61, 10);
  islands.config.search = zero_migration;
  Service service;
  for (const Request& request : {tempered, islands}) {
    EXPECT_THROW(service.solve(request), std::invalid_argument);
    EXPECT_THROW(service.submit(request), std::invalid_argument);
    EXPECT_THROW(service.solve_form(form, request.config, init, request.batch),
                 std::invalid_argument);
  }
}

TEST(Service, PendingSubmissionsCompleteThroughShutdown) {
  // Futures obtained before ~Service must resolve, not break.
  std::future<Reply> future;
  {
    Service service(ServiceConfig{.chip_cache_capacity = 2, .workers = 1});
    future = service.submit(qkp_request(70, 12, 200));
  }  // ~Service drains the queue
  const Reply reply = future.get();
  EXPECT_FALSE(reply.batch.runs.empty());
}

TEST(Service, EffectiveBatchThreadsIsTheFairShareClamp) {
  // min(resolved, max(1, budget / in_flight)): alone you keep your width,
  // concurrent requests split the machine, oversubscription floors at a
  // serial batch instead of starving.
  EXPECT_EQ(effective_batch_threads(8, 16, 1), 8u);
  EXPECT_EQ(effective_batch_threads(16, 16, 1), 16u);
  EXPECT_EQ(effective_batch_threads(16, 16, 2), 8u);
  EXPECT_EQ(effective_batch_threads(16, 16, 3), 5u);
  EXPECT_EQ(effective_batch_threads(4, 16, 2), 4u);   // clamp never raises
  EXPECT_EQ(effective_batch_threads(16, 16, 32), 1u); // floor at serial
  EXPECT_EQ(effective_batch_threads(16, 4, 0), 4u);   // in_flight floors at 1
  EXPECT_EQ(effective_batch_threads(0, 8, 1), 1u);    // degenerate resolved
}

TEST(Service, ReplyCarriesEffectiveThreads) {
  const unsigned saved = core::requested_thread_budget();
  core::set_thread_budget(4);
  Service service;

  // A lone request resolves threads=0 against the budget (capped by its
  // schedulable task count) and keeps the full share.
  Request request = qkp_request(80, 12, 150, 5, /*restarts=*/8);
  EXPECT_EQ(service.solve(request).effective_threads, 4u);

  // An explicit narrower width survives untouched.
  request.batch.threads = 2;
  EXPECT_EQ(service.solve(request).effective_threads, 2u);

  // Fewer tasks than budget: the task count caps the width.
  request.batch.threads = 0;
  request.batch.restarts = 2;
  EXPECT_EQ(service.solve(request).effective_threads, 2u);

  // Tempering schedules restarts × replicas tasks, so the same 2-restart
  // batch resolves wider under the two-level tree.
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  tempering.exchange_interval = 10;
  request.config.search = tempering;
  EXPECT_EQ(service.solve(request).effective_threads, 4u);

  core::set_thread_budget(saved);
}

TEST(Service, StatsExposeSchedulerCounters) {
  Service service(ServiceConfig{.chip_cache_capacity = 4, .workers = 2});
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(qkp_request(90 + i, 12, 150)));
  }
  for (auto& f : futures) f.get();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submissions, 4u);
  EXPECT_EQ(stats.drained, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.cache.misses, 4u);  // four distinct instances
  // The pool view: a real budget and the batches' tasks on the counters.
  EXPECT_GE(stats.pool.budget, 1u);
  EXPECT_GT(stats.pool.tasks_executed, 0u);
  EXPECT_GE(stats.pool.posted, 1u);  // at least one drainer job
}

TEST(Service, ManyConcurrentSubmissionsMatchSerialAndShareTheBudget) {
  // The oversubscription regression: a burst of submissions must neither
  // change any reply (vs a fresh serial service) nor exceed the global
  // thread budget — every batch runs on the one pool, clamped to its fair
  // share (reply.effective_threads records it).
  const unsigned saved = core::requested_thread_budget();
  core::set_thread_budget(4);
  constexpr std::size_t kBurst = 10;
  std::vector<Request> requests;
  requests.reserve(kBurst);
  for (std::size_t i = 0; i < kBurst; ++i) {
    requests.push_back(qkp_request(120 + i, 13, 200, 40 + i, /*restarts=*/6));
  }
  std::vector<std::future<Reply>> futures;
  {
    Service burst(ServiceConfig{.chip_cache_capacity = 16, .workers = 4});
    futures.reserve(kBurst);
    for (const Request& request : requests) {
      futures.push_back(burst.submit(request));
    }
    // Replies resolve while the service is still accepting work.
    for (std::size_t i = 0; i < kBurst; ++i) {
      const Reply reply = futures[i].get();
      EXPECT_GE(reply.effective_threads, 1u);
      EXPECT_LE(reply.effective_threads, 4u);
      Service fresh(ServiceConfig{.chip_cache_capacity = 2, .workers = 1});
      expect_batches_equal(reply.batch, fresh.solve(requests[i]).batch);
    }
  }
  core::set_thread_budget(saved);
}

TEST(Service, ArchipelagoRequestMatchesDirectSolveAndCarriesIslandStats) {
  // The front door runs archipelago configs through solve_batch, and the
  // island observability (stats + migration trace) survives the trip into
  // the Reply.
  const auto inst = qkp_instance(93, 16);
  Request request;
  request.instance = inst;
  request.config.sa.iterations = 250;
  anneal::ArchipelagoParams ap;
  ap.islands = 2;
  anneal::TemperingParams ladder;
  ladder.replicas = 2;
  ladder.exchange_interval = 10;
  ap.roster = {ladder, anneal::SaSearch{}};
  ap.migration_interval = 25;
  request.config.search = ap;
  request.batch.restarts = 3;
  request.batch.seed = 21;

  Service service;
  const Reply reply = service.solve(request);
  const Reply async = service.submit(request).get();
  expect_batches_equal(reply.batch, async.batch);
  EXPECT_GT(reply.batch.total_migrations_proposed, 0u);
  for (std::size_t r = 0; r < reply.batch.runs.size(); ++r) {
    const auto& run = reply.batch.runs[r];
    ASSERT_EQ(run.islands.size(), 2u);
    EXPECT_EQ(run.islands[0].replicas, 2u);  // the tempering island
    EXPECT_EQ(run.islands[1].replicas, 1u);  // the SA island
    EXPECT_FALSE(run.migration_trace.empty());
    EXPECT_EQ(run.islands, async.batch.runs[r].islands) << "run " << r;
    EXPECT_EQ(run.migration_trace, async.batch.runs[r].migration_trace);
  }

  const auto direct = runtime::solve_batch(
      cop::to_constrained_form(inst), request.config,
      [&inst](util::Rng& rng) { return cop::random_feasible(inst, rng); },
      request.batch);
  EXPECT_EQ(reply.batch.best_x, direct.best_x);
  EXPECT_EQ(reply.batch.best_energy, direct.best_energy);
  EXPECT_EQ(reply.batch.total_migrations_accepted,
            direct.total_migrations_accepted);
  EXPECT_EQ(reply.batch.total_resamples, direct.total_resamples);
}

TEST(ChipKey, SolveKeySensitiveToArchipelagoKnobs) {
  // Every island knob moves the solve key (strategy routing + dedupe
  // depend on it) and none of them moves the fabrication key (the chip
  // is reusable across island schedules).
  const auto form = cop::to_constrained_form(qkp_instance(94, 12));
  core::HyCimConfig base;
  anneal::ArchipelagoParams ap;
  ap.islands = 3;
  base.search = ap;

  const auto knobs = [&](auto mutate) {
    core::HyCimConfig other = base;
    auto& params = std::get<anneal::ArchipelagoParams>(other.search);
    mutate(params);
    EXPECT_NE(solve_key(base), solve_key(other));
    EXPECT_EQ(fabrication_key(form, base), fabrication_key(form, other));
  };
  knobs([](anneal::ArchipelagoParams& p) { p.islands = 4; });
  knobs([](anneal::ArchipelagoParams& p) { p.migration_interval += 1; });
  knobs([](anneal::ArchipelagoParams& p) {
    p.topology = anneal::MigrationTopology::kFullyConnected;
  });
  knobs([](anneal::ArchipelagoParams& p) { p.stagnation_epochs += 1; });
  knobs([](anneal::ArchipelagoParams& p) { p.adapt_ladder = false; });
  knobs([](anneal::ArchipelagoParams& p) { p.target_acceptance = 0.4; });
  knobs([](anneal::ArchipelagoParams& p) { p.record_trace = false; });
  knobs([](anneal::ArchipelagoParams& p) {
    anneal::TemperingParams ladder;
    ladder.replicas = 3;
    p.roster = {ladder};
  });
  // And the strategy kinds can never alias each other: an archipelago of
  // one default ladder hashes apart from the plain tempering config.
  core::HyCimConfig tempered = base;
  tempered.search = anneal::TemperingParams{};
  EXPECT_NE(solve_key(base), solve_key(tempered));
}

TEST(Service, TraceGuardBoundsLongRequestsWithExactCounters) {
  // A long tempered/archipelago submission whose estimated trace exceeds
  // ServiceConfig::max_trace_events comes back with empty traces but
  // bit-identical results and exact counters — the record_trace contract
  // applied at the front door.
  const auto inst = qkp_instance(95, 14);
  Request request;
  request.instance = inst;
  request.config.sa.iterations = 300;
  anneal::TemperingParams tempering;
  tempering.replicas = 4;
  tempering.exchange_interval = 10;
  request.config.search = tempering;
  request.batch.restarts = 4;
  request.batch.seed = 33;

  // The estimate is a pure function: barriers × pairs × restarts.
  const std::size_t per_run = (300 / 10) * (4 / 2);
  EXPECT_EQ(estimated_trace_events(request.config, 4), per_run * 4);

  Service unguarded(ServiceConfig{.max_trace_events = 0});
  Service guarded(ServiceConfig{.max_trace_events = 8});
  const Reply traced = unguarded.solve(request);
  const Reply bounded = guarded.solve(request);
  expect_batches_equal(traced.batch, bounded.batch);
  EXPECT_EQ(traced.batch.total_exchanges_proposed,
            bounded.batch.total_exchanges_proposed);
  EXPECT_EQ(traced.batch.total_exchanges_accepted,
            bounded.batch.total_exchanges_accepted);
  for (const auto& run : traced.batch.runs) {
    EXPECT_FALSE(run.exchange_trace.empty());
  }
  for (const auto& run : bounded.batch.runs) {
    EXPECT_TRUE(run.exchange_trace.empty());
  }

  // A short request stays under the guard and keeps its trace.
  Request short_request = request;
  short_request.config.sa.iterations = 30;
  short_request.batch.restarts = 1;
  const Reply under = guarded.solve(short_request);
  EXPECT_FALSE(under.batch.runs.front().exchange_trace.empty());

  // Same contract for an archipelago request: migration + resample traces
  // clamp too, with the migration counters untouched.
  Request island_request;
  island_request.instance = inst;
  island_request.config.sa.iterations = 300;
  anneal::ArchipelagoParams ap;
  ap.islands = 2;
  anneal::TemperingParams ladder;
  ladder.replicas = 2;
  ladder.exchange_interval = 10;
  ap.roster = {ladder};
  ap.migration_interval = 30;
  island_request.config.search = ap;
  island_request.batch.restarts = 2;
  island_request.batch.seed = 5;
  EXPECT_GT(estimated_trace_events(island_request.config, 2), 8u);

  const Reply island_traced = unguarded.solve(island_request);
  const Reply island_bounded = guarded.solve(island_request);
  expect_batches_equal(island_traced.batch, island_bounded.batch);
  EXPECT_EQ(island_traced.batch.total_migrations_proposed,
            island_bounded.batch.total_migrations_proposed);
  EXPECT_EQ(island_traced.batch.total_migrations_accepted,
            island_bounded.batch.total_migrations_accepted);
  EXPECT_GT(island_traced.batch.total_migrations_proposed, 0u);
  for (const auto& run : island_traced.batch.runs) {
    EXPECT_FALSE(run.migration_trace.empty());
    EXPECT_EQ(run.islands.size(), 2u);  // stats always survive the guard
  }
  for (const auto& run : island_bounded.batch.runs) {
    EXPECT_TRUE(run.migration_trace.empty());
    EXPECT_TRUE(run.exchange_trace.empty());
    EXPECT_EQ(run.islands.size(), 2u);
  }
}

/// Disarms the global fault injector on scope exit (tests share it).
struct FaultGuard {
  FaultGuard() { util::fault_injector().disarm(); }
  ~FaultGuard() { util::fault_injector().disarm(); }
};

TEST(ServiceRobustness, SubmitAfterShutdownIsRejectedNotThrown) {
  for (const ShutdownMode mode : {ShutdownMode::kDrain, ShutdownMode::kAbort}) {
    Service service(ServiceConfig{.workers = 1});
    service.shutdown(mode);
    std::future<Reply> future = service.submit(qkp_request(100, 10, 100));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const Reply reply = future.get();
    EXPECT_EQ(reply.status, core::SolveStatus::kRejected);
    EXPECT_EQ(reply.attempts, 0u);
    EXPECT_TRUE(reply.batch.runs.empty());
    EXPECT_EQ(service.stats().rejected, 1u);
  }
}

TEST(ServiceRobustness, DrainShutdownCompletesQueuedSubmissions) {
  Service service(ServiceConfig{.workers = 1});
  service.set_drain_paused(true);
  auto a = service.submit(qkp_request(101, 12, 150, 3));
  auto b = service.submit(qkp_request(101, 12, 150, 4));
  EXPECT_EQ(service.stats().queue_depth, 2u);
  service.shutdown(ShutdownMode::kDrain);
  const Reply reply_a = a.get();
  const Reply reply_b = b.get();
  EXPECT_EQ(reply_a.status, core::SolveStatus::kOk);
  EXPECT_EQ(reply_b.status, core::SolveStatus::kOk);
  EXPECT_FALSE(reply_a.batch.runs.empty());
  EXPECT_EQ(service.stats().drained, 2u);
  EXPECT_EQ(service.stats().queue_depth, 0u);
}

TEST(ServiceRobustness, AbortShutdownCancelsQueuedSubmissions) {
  Service service(ServiceConfig{.workers = 1});
  service.set_drain_paused(true);
  std::vector<std::future<Reply>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(service.submit(qkp_request(102, 12, 150, i + 1)));
  }
  service.shutdown(ShutdownMode::kAbort);
  for (auto& future : futures) {
    const Reply reply = future.get();
    EXPECT_EQ(reply.status, core::SolveStatus::kCancelled);
    EXPECT_EQ(reply.attempts, 0u);
    EXPECT_TRUE(reply.batch.runs.empty());
  }
  EXPECT_EQ(service.stats().cancelled, 3u);
  // The abort token stays fired: sync solves reply cancelled too.
  EXPECT_EQ(service.solve(qkp_request(102, 12, 150)).status,
            core::SolveStatus::kCancelled);
}

TEST(ServiceRobustness, ExpiredDeadlineFastFailsWithZeroFabrication) {
  Service service;
  Request request = qkp_request(103, 12, 200);
  request.timeout = std::chrono::nanoseconds(-1);
  const Reply reply = service.solve(request);
  EXPECT_EQ(reply.status, core::SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(reply.attempts, 0u);
  EXPECT_TRUE(reply.batch.runs.empty());
  // Nothing was lowered or fabricated: the chip cache is untouched.
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.entries, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.fast_fails, 1u);
}

TEST(ServiceRobustness, PreCancelledRequestTokenYieldsCancelledReply) {
  Service service;
  runtime::CancelSource source;
  source.cancel();
  Request request = qkp_request(104, 12, 200);
  request.cancel = source.token();
  const Reply reply = service.solve(request);
  EXPECT_EQ(reply.status, core::SolveStatus::kCancelled);
  EXPECT_EQ(reply.attempts, 0u);
  EXPECT_EQ(service.stats().cancelled, 1u);
  EXPECT_EQ(service.cache_stats().misses, 0u);
}

TEST(ServiceRobustness, AdmissionControlRejectsWhenQueueIsFull) {
  Service service(ServiceConfig{.workers = 1, .max_queue_depth = 2});
  service.set_drain_paused(true);
  auto a = service.submit(qkp_request(105, 12, 100, 1));
  auto b = service.submit(qkp_request(105, 12, 100, 2));
  auto c = service.submit(qkp_request(105, 12, 100, 3));
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Reply rejected = c.get();
  EXPECT_EQ(rejected.status, core::SolveStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().queue_depth, 2u);
  service.set_drain_paused(false);
  EXPECT_EQ(a.get().status, core::SolveStatus::kOk);
  EXPECT_EQ(b.get().status, core::SolveStatus::kOk);
}

TEST(ServiceRobustness, AdmissionControlShedsLowestPriority) {
  Service service(ServiceConfig{
      .workers = 1,
      .max_queue_depth = 2,
      .overflow_policy = OverflowPolicy::kShedLowestPriority});
  service.set_drain_paused(true);
  Request low = qkp_request(106, 12, 100, 1);
  low.priority = 0;
  Request mid = qkp_request(106, 12, 100, 2);
  mid.priority = 1;
  Request high = qkp_request(106, 12, 100, 3);
  high.priority = 2;
  auto low_future = service.submit(low);
  auto mid_future = service.submit(mid);
  // The queue is full: the high-priority submission displaces the lowest.
  auto high_future = service.submit(high);
  ASSERT_EQ(low_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Reply shed = low_future.get();
  EXPECT_EQ(shed.status, core::SolveStatus::kRejected);
  EXPECT_NE(shed.message.find("shed"), std::string::npos);
  EXPECT_EQ(service.stats().shed, 1u);
  // A new lowest-priority submission cannot displace anyone: rejected.
  Request low2 = qkp_request(106, 12, 100, 4);
  low2.priority = 0;
  auto low2_future = service.submit(low2);
  EXPECT_EQ(low2_future.get().status, core::SolveStatus::kRejected);
  EXPECT_EQ(service.stats().rejected, 1u);
  service.set_drain_paused(false);
  EXPECT_EQ(mid_future.get().status, core::SolveStatus::kOk);
  EXPECT_EQ(high_future.get().status, core::SolveStatus::kOk);
}

TEST(ServiceRobustness, HigherPriorityDrainsFirst) {
  Service service(ServiceConfig{.workers = 1});
  service.set_drain_paused(true);
  std::mutex order_mutex;
  std::vector<int> order;
  const auto tagged = [&](int tag, int priority) {
    Request request = qkp_request(107, 10, 50, tag + 1, /*restarts=*/1);
    request.priority = priority;
    request.init = [&order, &order_mutex, tag, inst = qkp_instance(107, 10)](
                       util::Rng& rng) {
      {
        const std::lock_guard<std::mutex> lock(order_mutex);
        order.push_back(tag);
      }
      return cop::random_feasible(inst, rng);
    };
    return request;
  };
  // Submitted 0 (pri 0), 1 (pri 5), 2 (pri 1), 3 (pri 5): the single
  // drainer must serve 1, 3 (FIFO within priority 5), then 2, then 0.
  std::vector<std::future<Reply>> futures;
  futures.push_back(service.submit(tagged(0, 0)));
  futures.push_back(service.submit(tagged(1, 5)));
  futures.push_back(service.submit(tagged(2, 1)));
  futures.push_back(service.submit(tagged(3, 5)));
  service.set_drain_paused(false);
  for (auto& future : futures) future.get();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2, 0}));
}

TEST(ServiceRobustness, TransientFabricationFaultIsRetriedToSuccess) {
  const FaultGuard guard;
  util::FaultPlan plan;
  plan.seed = 7;
  plan.fabrication_rate = 1.0;
  util::fault_injector().arm(plan);

  Service service(ServiceConfig{.retry_backoff_base = {}});
  const Request request = qkp_request(108, 12, 200);
  const Reply reply = service.solve(request);
  // The first fabrication faulted, burned its coordinate, and the retry
  // deterministically succeeded.
  EXPECT_EQ(reply.status, core::SolveStatus::kOk);
  EXPECT_EQ(reply.attempts, 2u);
  EXPECT_FALSE(reply.batch.runs.empty());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(util::fault_injector().stats().injected, 1u);

  // The faulted reply is bit-identical to an undisturbed solve: retries
  // never perturb the randomness.
  util::fault_injector().disarm();
  Service clean;
  expect_batches_equal(reply.batch, clean.solve(request).batch);
}

TEST(ServiceRobustness, ExhaustedRetryBudgetRepliesFaultedThenRecovers) {
  const FaultGuard guard;
  util::FaultPlan plan;
  plan.seed = 9;
  plan.fabrication_rate = 1.0;
  util::fault_injector().arm(plan);

  Service service(
      ServiceConfig{.max_retries = 0, .retry_backoff_base = {}});
  const Request request = qkp_request(109, 12, 200);
  const Reply faulted = service.solve(request);
  EXPECT_EQ(faulted.status, core::SolveStatus::kFaulted);
  EXPECT_EQ(faulted.attempts, 1u);
  EXPECT_NE(faulted.message.find("fabrication"), std::string::npos);
  EXPECT_TRUE(faulted.batch.runs.empty());
  // The coordinate is burned: resubmitting the same request succeeds.
  const Reply recovered = service.solve(request);
  EXPECT_EQ(recovered.status, core::SolveStatus::kOk);
  EXPECT_EQ(recovered.attempts, 1u);
}

TEST(ServiceRobustness, UnhealthyHardwareChipDegradesToSoftwarePath) {
  const FaultGuard guard;
  util::FaultPlan plan;
  plan.seed = 5;
  plan.health_rate = 1.0;  // every hardware chip fails health validation
  util::fault_injector().arm(plan);

  Service service;
  Request request = qkp_request(110, 12, 200);
  request.config.filter_mode = core::FilterMode::kHardware;
  const Reply degraded = service.solve(request);
  EXPECT_EQ(degraded.status, core::SolveStatus::kDegraded);
  EXPECT_NE(degraded.message.find("software"), std::string::npos);
  EXPECT_EQ(degraded.attempts, 1u);
  EXPECT_EQ(service.stats().degraded, 1u);

  // The degraded reply is exactly the software-filter solve of the same
  // request — the ladder swaps the path, not the protocol.
  util::fault_injector().disarm();
  Request software = request;
  software.config.filter_mode = core::FilterMode::kSoftware;
  Service clean;
  const Reply direct = clean.solve(software);
  expect_batches_equal(degraded.batch, direct.batch);
  EXPECT_EQ(direct.status, core::SolveStatus::kOk);
}

TEST(ServiceRobustness, StatsExposePoolSuppressedExceptions) {
  // The pool-level counter rides into ServiceStats wholesale.
  Service service;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.pool.suppressed_exceptions,
            runtime::ExecutorPool::global().stats().suppressed_exceptions);
}

}  // namespace
}  // namespace hycim::service
