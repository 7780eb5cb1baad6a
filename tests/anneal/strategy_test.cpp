// The pluggable search-strategy layer: SingleSa must be bit-identical to
// calling simulated_annealing directly, ReplicaExchange must be a pure
// function of (problems, x0, params, seed) regardless of executor
// scheduling, exchange_step must implement the Metropolis ladder swap, and
// out-of-domain parameters must be rejected at solve entry.
#include "anneal/strategy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "qubo/brute_force.hpp"
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

/// Runs ReplicaExchange on `q` with the given executor.
SearchResult tempered(const qubo::QuboMatrix& q, const TemperingParams& tp,
                      const SaParams& sa, std::uint64_t seed,
                      const Executor& executor) {
  std::vector<std::unique_ptr<QuboProblem>> problems;
  std::vector<SaProblem*> ptrs;
  for (std::size_t r = 0; r < tp.replicas; ++r) {
    problems.push_back(std::make_unique<QuboProblem>(q));
    ptrs.push_back(problems.back().get());
  }
  return ReplicaExchange(tp).run(ptrs, qubo::BitVector(q.size(), 0), sa, seed,
                                 executor, util::CancelToken{});
}

TEST(Validation, RejectsOutOfDomainSaParams) {
  util::Rng rng(1);
  const auto q = random_qubo(6, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 10;

  SaParams bad = params;
  bad.swap_probability = -0.1;
  EXPECT_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), bad),
               std::invalid_argument);
  bad.swap_probability = 1.5;
  EXPECT_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), bad),
               std::invalid_argument);
  bad = params;
  bad.t_end_frac = 0.0;
  EXPECT_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), bad),
               std::invalid_argument);
  bad.t_end_frac = -1e-3;
  EXPECT_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), bad),
               std::invalid_argument);
  // The in-domain boundary values stay accepted.
  SaParams ok = params;
  ok.swap_probability = 0.0;
  EXPECT_NO_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), ok));
  ok.swap_probability = 1.0;
  EXPECT_NO_THROW(simulated_annealing(problem, qubo::BitVector(6, 0), ok));
}

TEST(Validation, RejectsOutOfDomainTemperingParams) {
  TemperingParams bad;
  bad.replicas = 1;
  EXPECT_THROW(ReplicaExchange{bad}, std::invalid_argument);
  bad = TemperingParams{};
  bad.exchange_interval = 0;
  EXPECT_THROW(ReplicaExchange{bad}, std::invalid_argument);
  bad = TemperingParams{};
  bad.t_ratio = 0.0;
  EXPECT_THROW(ReplicaExchange{bad}, std::invalid_argument);
  bad.t_ratio = 1.5;
  EXPECT_THROW(ReplicaExchange{bad}, std::invalid_argument);
  EXPECT_NO_THROW(ReplicaExchange{TemperingParams{}});
}

TEST(SingleSaStrategy, BitIdenticalToDirectEngineCall) {
  util::Rng rng(2);
  const auto q = random_qubo(14, rng);
  SaParams params;
  params.iterations = 600;

  QuboProblem direct(q);
  SaParams seeded = params;
  seeded.seed = 77;
  const SaResult expected =
      simulated_annealing(direct, qubo::BitVector(14, 0), seeded);

  QuboProblem via_strategy(q);
  SaProblem* ptr = &via_strategy;
  const SearchResult got = SingleSa{}.run({&ptr, 1}, qubo::BitVector(14, 0),
                                          params, 77, run_serial,
                                          util::CancelToken{});
  EXPECT_EQ(got.sa.best_x, expected.best_x);
  EXPECT_EQ(got.sa.best_energy, expected.best_energy);
  EXPECT_EQ(got.sa.accepted, expected.accepted);
  EXPECT_EQ(got.sa.proposed, expected.proposed);
  EXPECT_TRUE(got.replicas.empty());
  EXPECT_TRUE(got.exchange_trace.empty());
}

TEST(ExchangeStep, AlwaysSwapsWhenColdHoldsHigherEnergy) {
  // E(slot 1's replica) > E(slot 0's replica) with β_1 > β_0: the Metropolis
  // exponent is >= 0, so the swap is deterministic.
  const std::vector<double> betas = {1.0, 10.0};
  const std::vector<double> energies = {-5.0, 3.0};  // replica 1 is worse
  std::vector<std::size_t> replica_at_slot = {0, 1};
  util::Rng rng(3);
  std::vector<ExchangeEvent> trace;
  const std::size_t accepted =
      exchange_step(0, betas, energies, replica_at_slot, rng, &trace);
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(replica_at_slot[0], 1u);
  EXPECT_EQ(replica_at_slot[1], 0u);
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0], (ExchangeEvent{0, 0, 0, 1, true}));
}

TEST(ExchangeStep, ParityAlternatesPairings) {
  const std::vector<double> betas = {1.0, 2.0, 4.0, 8.0};
  const std::vector<double> energies = {0.0, 0.0, 0.0, 0.0};  // ΔE = 0: accept
  std::vector<std::size_t> replica_at_slot = {0, 1, 2, 3};
  util::Rng rng(4);
  std::vector<ExchangeEvent> trace;
  exchange_step(0, betas, energies, replica_at_slot, rng, &trace);  // (0,1)(2,3)
  exchange_step(1, betas, energies, replica_at_slot, rng, &trace);  // (1,2)
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].slot, 0u);
  EXPECT_EQ(trace[1].slot, 2u);
  EXPECT_EQ(trace[2].slot, 1u);
  EXPECT_EQ(trace[2].barrier, 1u);
  for (const auto& e : trace) EXPECT_TRUE(e.accepted);
}

TEST(ReplicaExchange, DeterministicAndExecutorInvariant) {
  util::Rng rng(5);
  const auto q = random_qubo(16, rng);
  TemperingParams tp;
  tp.replicas = 4;
  tp.exchange_interval = 25;
  SaParams sa;
  sa.iterations = 400;

  const SearchResult serial = tempered(q, tp, sa, 11, run_serial);
  // A deliberately adversarial executor: tasks run in *reverse* order on
  // short-lived threads.  Any hidden cross-replica coupling would show up
  // as a different walk or exchange trace.
  const Executor reversed = [](std::size_t count, const Task& task) {
    std::vector<std::thread> threads;
    for (std::size_t i = count; i-- > 0;) threads.emplace_back(task, i);
    for (auto& t : threads) t.join();
  };
  const SearchResult parallel = tempered(q, tp, sa, 11, reversed);

  EXPECT_EQ(serial.sa.best_x, parallel.sa.best_x);
  EXPECT_EQ(serial.sa.best_energy, parallel.sa.best_energy);
  EXPECT_EQ(serial.sa.final_x, parallel.sa.final_x);
  EXPECT_EQ(serial.replicas, parallel.replicas);
  EXPECT_EQ(serial.exchange_trace, parallel.exchange_trace);
  EXPECT_EQ(serial.exchanges_accepted, parallel.exchanges_accepted);
}

TEST(ReplicaExchange, CountersAggregateOverReplicas) {
  util::Rng rng(6);
  const auto q = random_qubo(12, rng);
  TemperingParams tp;
  tp.replicas = 3;
  tp.exchange_interval = 50;
  SaParams sa;
  sa.iterations = 300;
  const SearchResult result = tempered(q, tp, sa, 7, run_serial);

  ASSERT_EQ(result.replicas.size(), 3u);
  std::size_t evaluated = 0, proposed = 0, accepted = 0;
  for (const auto& r : result.replicas) {
    EXPECT_EQ(r.evaluated, sa.iterations);  // unconstrained: full budget
    evaluated += r.evaluated;
    proposed += r.proposed;
    accepted += r.accepted;
  }
  EXPECT_EQ(result.sa.evaluated, evaluated);
  EXPECT_EQ(result.sa.proposed, proposed);
  EXPECT_EQ(result.sa.accepted, accepted);
  // 300 iterations at interval 50 → 5 interior barriers, each proposing
  // floor(3/2) = 1 pair.
  EXPECT_EQ(result.exchanges_proposed, 5u);
  EXPECT_EQ(result.exchange_trace.size(), 5u);
  EXPECT_LE(result.exchanges_accepted, result.exchanges_proposed);
  // Accepted events appear in the per-replica counters, twice per swap.
  std::size_t per_replica_accepts = 0;
  for (const auto& r : result.replicas) {
    per_replica_accepts += r.exchanges_accepted;
  }
  EXPECT_EQ(per_replica_accepts, 2 * result.exchanges_accepted);
}

TEST(ReplicaExchange, EnsembleBestIsConsistentAndReachesOptimum) {
  util::Rng rng(7);
  const auto q = random_qubo(10, rng);
  const auto truth = qubo::brute_force_minimize(q);
  TemperingParams tp;
  tp.replicas = 4;
  tp.exchange_interval = 20;
  SaParams sa;
  sa.iterations = 1500;
  const SearchResult result = tempered(q, tp, sa, 21, run_serial);

  EXPECT_NEAR(q.energy(result.sa.best_x), result.sa.best_energy, 1e-9);
  EXPECT_NEAR(result.sa.best_energy, truth.best_energy, 1e-9);
  // The aggregate best is the replica-wise minimum.
  double replica_min = result.replicas[0].best_energy;
  for (const auto& r : result.replicas) {
    replica_min = std::min(replica_min, r.best_energy);
  }
  EXPECT_DOUBLE_EQ(result.sa.best_energy, replica_min);
}

TEST(ReplicaExchange, RejectsMismatchedProblemCount) {
  util::Rng rng(8);
  const auto q = random_qubo(6, rng);
  QuboProblem only(q);
  SaProblem* ptr = &only;
  TemperingParams tp;  // wants 4 replicas
  EXPECT_THROW(ReplicaExchange(tp).run({&ptr, 1}, qubo::BitVector(6, 0),
                                       SaParams{}, 1, run_serial,
                                       util::CancelToken{}),
               std::invalid_argument);
}

TEST(ReplicaExchange, RejectsMismatchedX0BeforeTouchingProblems) {
  // The auto-calibration path resets problems[0] before the walks'
  // constructors run; a wrong-size x0 must fail loudly, not index out of
  // bounds inside that reset.
  util::Rng rng(9);
  const auto q = random_qubo(8, rng);
  TemperingParams tp;
  tp.replicas = 2;
  std::vector<std::unique_ptr<QuboProblem>> problems;
  std::vector<SaProblem*> ptrs;
  for (std::size_t r = 0; r < tp.replicas; ++r) {
    problems.push_back(std::make_unique<QuboProblem>(q));
    ptrs.push_back(problems.back().get());
  }
  SaParams sa;  // t0 == 0 → calibration path
  EXPECT_THROW(ReplicaExchange(tp).run(ptrs, qubo::BitVector(5, 0), sa, 1,
                                       run_serial, util::CancelToken{}),
               std::invalid_argument);
}

TEST(MakeStrategy, SelectsByVariantAlternative) {
  const auto sa = make_strategy(SaSearch{});
  EXPECT_EQ(sa->replicas(), 1u);
  TemperingParams tp;
  tp.replicas = 6;
  const auto pt = make_strategy(SearchParams{tp});
  EXPECT_EQ(pt->replicas(), 6u);
}

}  // namespace
}  // namespace hycim::anneal
