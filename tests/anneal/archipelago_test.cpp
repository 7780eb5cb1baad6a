// The archipelago strategy: parameter validation, the migration/respace
// micro-kernels, determinism under adversarial executors (including the
// migration and resample traces), counter aggregation, and the
// record_trace memory bound (counters exact either way).
#include "anneal/archipelago.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "qubo/energy.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {
namespace {

/// Plain QUBO problem over an IncrementalEvaluator (no constraints).
class QuboProblem : public SaProblem {
 public:
  explicit QuboProblem(const qubo::QuboMatrix& q)
      : eval_(q.freeze(), qubo::BitVector(q.size(), 0)) {}
  std::size_t num_bits() const override { return eval_.state().size(); }
  double reset(const qubo::BitVector& x) override {
    eval_.reset(x);
    return eval_.energy();
  }
  double trial_delta(const Move& m) override {
    return m.is_swap() ? eval_.delta_pair(m.bits[0], m.bits[1])
                       : eval_.delta(m.bits[0]);
  }
  void commit(const Move& m) override {
    if (m.is_swap()) {
      eval_.flip_pair(m.bits[0], m.bits[1]);
    } else {
      eval_.flip(m.bits[0]);
    }
  }
  const qubo::BitVector& state() const override { return eval_.state(); }

 private:
  qubo::IncrementalEvaluator eval_;
};

qubo::QuboMatrix random_qubo(std::size_t n, util::Rng& rng) {
  qubo::QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-5, 5));
  }
  return q;
}

/// Runs an Archipelago on fresh QuboProblem clones of `q`.
SearchResult islanded(const qubo::QuboMatrix& q, const ArchipelagoParams& ap,
                      const SaParams& sa, std::uint64_t seed,
                      const Executor& executor) {
  const Archipelago strategy(ap);
  std::vector<std::unique_ptr<QuboProblem>> problems;
  std::vector<SaProblem*> ptrs;
  for (std::size_t r = 0; r < strategy.replicas(); ++r) {
    problems.push_back(std::make_unique<QuboProblem>(q));
    ptrs.push_back(problems.back().get());
  }
  return strategy.run(ptrs, qubo::BitVector(q.size(), 0), sa, seed, executor,
                      util::CancelToken{});
}

TEST(ArchipelagoValidation, RejectsOutOfDomainParams) {
  ArchipelagoParams bad;
  bad.islands = 1;
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  bad = ArchipelagoParams{};
  bad.migration_interval = 0;
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  bad = ArchipelagoParams{};
  bad.topology = static_cast<MigrationTopology>(99);
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  bad = ArchipelagoParams{};
  bad.target_acceptance = 0.0;
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  bad.target_acceptance = 1.0;
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  bad = ArchipelagoParams{};
  TemperingParams degenerate;
  degenerate.replicas = 1;  // one replica is plain SA, not a ladder
  bad.roster = {degenerate};
  EXPECT_THROW(Archipelago{bad}, std::invalid_argument);
  EXPECT_NO_THROW(Archipelago{ArchipelagoParams{}});
}

TEST(ArchipelagoValidation, TotalReplicasCyclesTheRoster) {
  ArchipelagoParams ap;
  ap.islands = 5;
  TemperingParams ladder;
  ladder.replicas = 3;
  ap.roster = {SaSearch{}, ladder};
  // Islands run {SA, PT3, SA, PT3, SA} → 1+3+1+3+1 = 9 replicas.
  EXPECT_EQ(total_replicas(ap), 9u);
  const Archipelago strategy(ap);
  EXPECT_EQ(strategy.replicas(), 9u);
  EXPECT_EQ(strategy.island_search(0).index(), 0u);
  EXPECT_EQ(strategy.island_search(1).index(), 1u);
  EXPECT_EQ(strategy.island_search(4).index(), 0u);
  // Empty roster: every island runs default replica exchange.
  ArchipelagoParams defaults;
  defaults.islands = 3;
  EXPECT_EQ(total_replicas(defaults), 3 * TemperingParams{}.replicas);
}

TEST(MigrationStep, RingAcceptsOnlyImprovingElites) {
  // Destination 0's donor is island 1 and vice versa.  Island 0's elite
  // (−10) beats island 1's worst current replica (0) → accepted; island
  // 1's elite (−1) does not beat island 0's worst (−5) → rejected.
  const std::vector<double> best = {-10.0, -1.0};
  const std::vector<double> worst = {-5.0, 0.0};
  std::vector<std::size_t> source(2);
  util::Rng rng(1);
  std::vector<MigrationEvent> trace;
  const std::size_t accepted = migration_step(
      3, MigrationTopology::kRing, best, worst, rng, source, &trace);
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(source[0], kNoMigrant);
  EXPECT_EQ(source[1], 0u);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], (MigrationEvent{3, 1, 0, -1.0, -5.0, false}));
  EXPECT_EQ(trace[1], (MigrationEvent{3, 0, 1, -10.0, 0.0, true}));
}

TEST(MigrationStep, NoneProposesNothing) {
  const std::vector<double> best = {-10.0, -1.0};
  const std::vector<double> worst = {0.0, 0.0};
  std::vector<std::size_t> source(2, 7);
  util::Rng rng(1);
  std::vector<MigrationEvent> trace;
  EXPECT_EQ(migration_step(0, MigrationTopology::kNone, best, worst, rng,
                           source, &trace),
            0u);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(source[0], kNoMigrant);
  EXPECT_EQ(source[1], kNoMigrant);
}

TEST(MigrationStep, FullyConnectedDrawsDonorsFromTheStream) {
  const std::vector<double> best = {-3.0, -2.0, -1.0};
  const std::vector<double> worst = {-2.5, 0.0, 0.0};
  std::vector<std::size_t> source(3);
  std::vector<MigrationEvent> trace;
  util::Rng rng(42);
  migration_step(0, MigrationTopology::kFullyConnected, best, worst, rng,
                 source, &trace);
  ASSERT_EQ(trace.size(), 3u);
  for (const MigrationEvent& e : trace) {
    EXPECT_NE(e.from_island, e.to_island);  // never a self-migration
    EXPECT_EQ(e.accepted, best[e.from_island] < worst[e.to_island]);
  }
  // The donor draw is a pure function of the stream: same seed, same plan.
  std::vector<std::size_t> replay(3);
  std::vector<MigrationEvent> replay_trace;
  util::Rng rng2(42);
  migration_step(0, MigrationTopology::kFullyConnected, best, worst, rng2,
                 replay, &replay_trace);
  EXPECT_EQ(trace, replay_trace);
  EXPECT_EQ(source, replay);
}

TEST(RespaceTRatio, SteersTheLadderTowardTheTargetAcceptance) {
  // Too many accepted swaps → slots overlap → widen the span (smaller
  // ratio); too few → contract toward 1.  On target, the ladder holds.
  const double hold = respace_t_ratio(0.05, 0.3, 0.3);
  EXPECT_NEAR(hold, 0.05, 1e-9);
  EXPECT_LT(respace_t_ratio(0.05, 0.9, 0.3), 0.05);
  EXPECT_GT(respace_t_ratio(0.05, 0.05, 0.3), 0.05);
  // The per-step factor and the ratio itself are clamped.
  EXPECT_GE(respace_t_ratio(0.5, 1.0, 0.01), 1e-6);
  EXPECT_LE(respace_t_ratio(1e-6, 0.0, 0.99), 0.999);
}

TEST(Archipelago, DeterministicAndExecutorInvariant) {
  util::Rng rng(5);
  const auto q = random_qubo(16, rng);
  ArchipelagoParams ap;
  ap.islands = 3;
  TemperingParams ladder;
  ladder.replicas = 3;
  ladder.exchange_interval = 10;
  ap.roster = {ladder, SaSearch{}};
  ap.migration_interval = 40;
  ap.stagnation_epochs = 2;
  SaParams sa;
  sa.iterations = 400;

  const SearchResult serial = islanded(q, ap, sa, 11, run_serial);
  // A deliberately adversarial executor: tasks run in *reverse* order on
  // short-lived threads (nested fans included).  Any cross-island or
  // cross-replica coupling would show up as a diverging trace.
  const Executor reversed = [](std::size_t count, const Task& task) {
    std::vector<std::thread> threads;
    for (std::size_t i = count; i-- > 0;) threads.emplace_back(task, i);
    for (auto& t : threads) t.join();
  };
  const SearchResult parallel = islanded(q, ap, sa, 11, reversed);

  EXPECT_EQ(serial.sa.best_x, parallel.sa.best_x);
  EXPECT_EQ(serial.sa.best_energy, parallel.sa.best_energy);
  EXPECT_EQ(serial.sa.final_x, parallel.sa.final_x);
  EXPECT_EQ(serial.replicas, parallel.replicas);
  EXPECT_EQ(serial.islands, parallel.islands);
  EXPECT_EQ(serial.exchange_trace, parallel.exchange_trace);
  EXPECT_EQ(serial.migration_trace, parallel.migration_trace);
  EXPECT_EQ(serial.resample_trace, parallel.resample_trace);
  EXPECT_EQ(serial.migrations_accepted, parallel.migrations_accepted);
  EXPECT_EQ(serial.resamples, parallel.resamples);
  EXPECT_EQ(serial.respaces, parallel.respaces);
}

TEST(Archipelago, CountersAndStatsAggregateOverIslands) {
  util::Rng rng(6);
  const auto q = random_qubo(12, rng);
  ArchipelagoParams ap;
  ap.islands = 3;
  TemperingParams ladder;
  ladder.replicas = 2;
  ladder.exchange_interval = 20;
  ap.roster = {ladder, SaSearch{}, SaSearch{}};  // 2 + 1 + 1 = 4 replicas
  ap.migration_interval = 100;
  ap.stagnation_epochs = 0;  // isolate migration accounting
  SaParams sa;
  sa.iterations = 400;
  const SearchResult result = islanded(q, ap, sa, 7, run_serial);

  ASSERT_EQ(result.replicas.size(), 4u);
  ASSERT_EQ(result.islands.size(), 3u);
  EXPECT_EQ(result.islands[0].replicas, 2u);
  EXPECT_EQ(result.islands[0].search_kind, 1u);
  EXPECT_EQ(result.islands[1].replicas, 1u);
  EXPECT_EQ(result.islands[1].search_kind, 0u);

  std::size_t evaluated = 0;
  for (const auto& r : result.replicas) {
    EXPECT_EQ(r.evaluated, sa.iterations);  // unconstrained: full budget
    evaluated += r.evaluated;
  }
  EXPECT_EQ(result.sa.evaluated, evaluated);
  std::size_t island_evaluated = 0;
  for (const auto& isl : result.islands) island_evaluated += isl.evaluated;
  EXPECT_EQ(island_evaluated, evaluated);

  // 400 iterations at interval 100 → 3 interior migration barriers, each
  // proposing one elite per island over the ring.
  EXPECT_EQ(result.migrations_proposed, 3u * ap.islands);
  EXPECT_EQ(result.migration_trace.size(), result.migrations_proposed);
  EXPECT_LE(result.migrations_accepted, result.migrations_proposed);
  std::size_t in = 0, out_count = 0;
  for (const auto& isl : result.islands) {
    in += isl.migrants_in;
    out_count += isl.migrants_out;
  }
  EXPECT_EQ(in, result.migrations_accepted);
  EXPECT_EQ(out_count, result.migrations_accepted);
  // The tempering island's ladder ran; SA islands never exchange.
  EXPECT_EQ(result.exchanges_proposed, result.islands[0].exchanges_proposed);
  EXPECT_GT(result.exchanges_proposed, 0u);
  EXPECT_EQ(result.islands[1].exchanges_proposed, 0u);
  // The ensemble best is the island-wise minimum and a real energy.
  double island_min = result.islands[0].best_energy;
  for (const auto& isl : result.islands) {
    island_min = std::min(island_min, isl.best_energy);
  }
  EXPECT_DOUBLE_EQ(result.sa.best_energy, island_min);
  EXPECT_NEAR(q.energy(result.sa.best_x), result.sa.best_energy, 1e-9);
}

TEST(Archipelago, ResamplingKillsStagnantIslands) {
  util::Rng rng(8);
  const auto q = random_qubo(10, rng);
  ArchipelagoParams ap;
  ap.islands = 4;
  ap.roster = {SaSearch{}};     // pure SA islands stagnate quickly
  ap.topology = MigrationTopology::kNone;  // isolate resampling
  ap.migration_interval = 20;
  ap.stagnation_epochs = 1;     // maximally aggressive
  SaParams sa;
  sa.iterations = 2000;
  const SearchResult result = islanded(q, ap, sa, 3, run_serial);
  EXPECT_GT(result.resamples, 0u);
  EXPECT_EQ(result.resample_trace.size(), result.resamples);
  for (const ResampleEvent& e : result.resample_trace) {
    EXPECT_NE(e.island, e.source_island);
    EXPECT_LT(e.elite_energy, e.stagnant_best);
  }
  std::size_t per_island = 0;
  for (const auto& isl : result.islands) per_island += isl.resamples;
  EXPECT_EQ(per_island, result.resamples);
}

TEST(Archipelago, AdaptiveLaddersRespaceFromMeasuredAcceptance) {
  util::Rng rng(9);
  const auto q = random_qubo(12, rng);
  ArchipelagoParams ap;
  ap.islands = 2;
  TemperingParams ladder;
  ladder.replicas = 4;
  ladder.exchange_interval = 5;  // many proposals per epoch
  ap.roster = {ladder};
  ap.migration_interval = 50;
  ap.stagnation_epochs = 0;
  ap.adapt_ladder = true;
  SaParams sa;
  sa.iterations = 600;
  const SearchResult adapted = islanded(q, ap, sa, 13, run_serial);
  EXPECT_GT(adapted.respaces, 0u);
  for (const IslandStats& isl : adapted.islands) {
    EXPECT_NE(isl.t_ratio, 0.0);  // final ratio reported
  }
  ap.adapt_ladder = false;
  const SearchResult frozen = islanded(q, ap, sa, 13, run_serial);
  EXPECT_EQ(frozen.respaces, 0u);
  for (const IslandStats& isl : frozen.islands) {
    EXPECT_DOUBLE_EQ(isl.t_ratio, ladder.t_ratio);
  }
}

TEST(Archipelago, RecordTraceOffKeepsCountersExact) {
  util::Rng rng(10);
  const auto q = random_qubo(12, rng);
  ArchipelagoParams ap;
  ap.islands = 3;
  TemperingParams ladder;
  ladder.replicas = 2;
  ladder.exchange_interval = 10;
  ap.roster = {ladder, SaSearch{}};
  ap.migration_interval = 30;
  ap.stagnation_epochs = 1;
  SaParams sa;
  sa.iterations = 300;
  const SearchResult traced = islanded(q, ap, sa, 17, run_serial);
  ap.record_trace = false;
  const SearchResult bounded = islanded(q, ap, sa, 17, run_serial);

  EXPECT_TRUE(bounded.exchange_trace.empty());
  EXPECT_TRUE(bounded.migration_trace.empty());
  EXPECT_TRUE(bounded.resample_trace.empty());
  EXPECT_FALSE(traced.migration_trace.empty());
  // Everything that is not the trace is bit-identical.
  EXPECT_EQ(bounded.sa.best_x, traced.sa.best_x);
  EXPECT_EQ(bounded.sa.best_energy, traced.sa.best_energy);
  EXPECT_EQ(bounded.replicas, traced.replicas);
  EXPECT_EQ(bounded.islands, traced.islands);
  EXPECT_EQ(bounded.exchanges_proposed, traced.exchanges_proposed);
  EXPECT_EQ(bounded.exchanges_accepted, traced.exchanges_accepted);
  EXPECT_EQ(bounded.migrations_proposed, traced.migrations_proposed);
  EXPECT_EQ(bounded.migrations_accepted, traced.migrations_accepted);
  EXPECT_EQ(bounded.resamples, traced.resamples);
  EXPECT_EQ(bounded.respaces, traced.respaces);
}

TEST(ReplicaExchangeTrace, RecordTraceOffKeepsCountersExact) {
  // The same memory-bound contract on the plain tempering strategy
  // (TemperingParams::record_trace): no trace, exact counters.
  util::Rng rng(11);
  const auto q = random_qubo(12, rng);
  TemperingParams tp;
  tp.replicas = 4;
  tp.exchange_interval = 10;
  SaParams sa;
  sa.iterations = 300;
  const auto run_with = [&](const TemperingParams& params) {
    std::vector<std::unique_ptr<QuboProblem>> problems;
    std::vector<SaProblem*> ptrs;
    for (std::size_t r = 0; r < params.replicas; ++r) {
      problems.push_back(std::make_unique<QuboProblem>(q));
      ptrs.push_back(problems.back().get());
    }
    return ReplicaExchange(params).run(ptrs, qubo::BitVector(q.size(), 0), sa,
                                       23, run_serial, util::CancelToken{});
  };
  const SearchResult traced = run_with(tp);
  tp.record_trace = false;
  const SearchResult bounded = run_with(tp);
  EXPECT_FALSE(traced.exchange_trace.empty());
  EXPECT_TRUE(bounded.exchange_trace.empty());
  EXPECT_EQ(bounded.sa.best_x, traced.sa.best_x);
  EXPECT_EQ(bounded.replicas, traced.replicas);  // incl. exchanges_accepted
  EXPECT_EQ(bounded.exchanges_proposed, traced.exchanges_proposed);
  EXPECT_EQ(bounded.exchanges_accepted, traced.exchanges_accepted);
}

TEST(MakeStrategy, SelectsArchipelagoByVariantAlternative) {
  ArchipelagoParams ap;
  ap.islands = 2;
  TemperingParams ladder;
  ladder.replicas = 3;
  ap.roster = {ladder};
  const auto strategy = make_strategy(SearchParams{ap});
  EXPECT_EQ(strategy->replicas(), 6u);
}

}  // namespace
}  // namespace hycim::anneal
