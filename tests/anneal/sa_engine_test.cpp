#include "anneal/sa_engine.hpp"

#include <gtest/gtest.h>

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

/// QUBO problem with a cardinality constraint (at most `limit` bits set) to
/// exercise the feasibility-rejection path.
class ConstrainedProblem : public QuboProblem {
 public:
  ConstrainedProblem(const qubo::QuboMatrix& q, std::size_t limit)
      : QuboProblem(q), limit_(limit) {}
  bool trial_feasible(const Move& m) override {
    std::size_t ones = 0;
    for (auto b : state()) ones += b;
    for (const std::size_t k : m.indices()) {
      ones = state()[k] ? ones - 1 : ones + 1;
    }
    return ones <= limit_;
  }

 private:
  std::size_t limit_;
};

qubo::QuboMatrix random_qubo(std::size_t n, util::Rng& rng) {
  qubo::QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-5, 5));
  }
  return q;
}

TEST(SaEngine, RejectsSizeMismatch) {
  qubo::QuboMatrix q(4);
  QuboProblem problem(q);
  SaParams params;
  EXPECT_THROW(simulated_annealing(problem, qubo::BitVector(3, 0), params),
               std::invalid_argument);
}

TEST(SaEngine, RejectsEmptyProblem) {
  // With no variables there is no move to propose: both walk modes refuse
  // the problem at construction, in every build type.
  const qubo::QuboMatrix q(0);
  QuboProblem problem(q);
  const qubo::BitVector x0;
  EXPECT_THROW(simulated_annealing(problem, x0, SaParams{}),
               std::invalid_argument);
  EXPECT_THROW(SaWalk(problem, x0, SaParams{}, util::Rng(1), 1.0),
               std::invalid_argument);
}

TEST(SaEngine, FindsGlobalMinimumOfSmallQubo) {
  util::Rng rng(1);
  const auto q = random_qubo(10, rng);
  const auto truth = qubo::brute_force_minimize(q);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 5000;
  params.seed = 17;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(10, 0), params);
  EXPECT_NEAR(result.best_energy, truth.best_energy, 1e-9);
}

TEST(SaEngine, BestEnergyConsistentWithBestX) {
  util::Rng rng(2);
  const auto q = random_qubo(12, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 500;
  params.seed = 3;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(12, 0), params);
  EXPECT_NEAR(q.energy(result.best_x), result.best_energy, 1e-9);
  EXPECT_NEAR(q.energy(result.final_x), result.final_energy, 1e-9);
}

TEST(SaEngine, BestNeverWorseThanInitial) {
  util::Rng rng(3);
  const auto q = random_qubo(15, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 200;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    params.seed = seed;
    const auto x0 = rng.random_bits(15);
    const auto result = simulated_annealing(problem, x0, params);
    EXPECT_LE(result.best_energy, q.energy(x0) + 1e-9);
  }
}

TEST(SaEngine, CountersAddUp) {
  util::Rng rng(4);
  const auto q = random_qubo(10, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 300;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(10, 0), params);
  // Unconstrained problem: every proposal is evaluated.
  EXPECT_EQ(result.proposed, 300u);
  EXPECT_EQ(result.evaluated, 300u);
  EXPECT_EQ(result.evaluated, result.accepted + result.rejected_metropolis);
  EXPECT_EQ(result.proposed,
            result.evaluated + result.rejected_infeasible);
}

TEST(SaEngine, InfeasibleProposalsDoNotConsumeQuboBudget) {
  // Paper Fig. 6(b): filtered configurations bounce back to move generation
  // without a QUBO computation or temperature update.
  util::Rng rng(42);
  qubo::QuboMatrix q(10);
  for (std::size_t i = 0; i < 10; ++i) q.set(i, i, -1.0);
  ConstrainedProblem problem(q, 2);  // tight cap: many infeasible proposals
  SaParams params;
  params.iterations = 500;
  params.seed = 9;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(10, 0), params);
  EXPECT_EQ(result.evaluated, 500u);  // full QUBO budget spent
  EXPECT_GT(result.rejected_infeasible, 0u);
  EXPECT_EQ(result.proposed, result.evaluated + result.rejected_infeasible);
}

TEST(SaEngine, ProposalCapBoundsWorkWhenNothingIsFeasible) {
  util::Rng rng(43);
  qubo::QuboMatrix q(10);
  // Constraint limit 0 with an all-zero start: every flip is infeasible.
  ConstrainedProblem problem(q, 0);
  SaParams params;
  params.iterations = 100;
  params.max_proposals = 1000;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(10, 0), params);
  EXPECT_EQ(result.evaluated, 0u);
  EXPECT_EQ(result.proposed, 1000u);  // terminated by the cap
}

TEST(SaEngine, DeterministicForFixedSeed) {
  util::Rng rng(5);
  const auto q = random_qubo(12, rng);
  SaParams params;
  params.iterations = 400;
  params.seed = 99;
  QuboProblem p1(q), p2(q);
  const auto r1 = simulated_annealing(p1, qubo::BitVector(12, 0), params);
  const auto r2 = simulated_annealing(p2, qubo::BitVector(12, 0), params);
  EXPECT_EQ(r1.best_x, r2.best_x);
  EXPECT_EQ(r1.accepted, r2.accepted);
  EXPECT_DOUBLE_EQ(r1.best_energy, r2.best_energy);
}

TEST(SaEngine, TraceRecordsEveryIteration) {
  util::Rng rng(6);
  const auto q = random_qubo(8, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 123;
  params.record_trace = true;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(8, 0), params);
  EXPECT_EQ(result.trace.size(), 123u);
  // Trace ends at the final energy.
  EXPECT_DOUBLE_EQ(result.trace.back(), result.final_energy);
}

TEST(SaEngine, NoTraceByDefault) {
  util::Rng rng(7);
  const auto q = random_qubo(8, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 50;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(8, 0), params);
  EXPECT_TRUE(result.trace.empty());
}

TEST(SaEngine, InfeasibleFlipsAreRejectedAndCounted) {
  util::Rng rng(8);
  qubo::QuboMatrix q(10);
  for (std::size_t i = 0; i < 10; ++i) q.set(i, i, -1.0);  // wants all ones
  ConstrainedProblem problem(q, 3);
  SaParams params;
  params.iterations = 2000;
  params.seed = 12;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(10, 0), params);
  EXPECT_GT(result.rejected_infeasible, 0u);
  // The constraint held throughout: best has at most 3 ones.
  std::size_t ones = 0;
  for (auto b : result.best_x) ones += b;
  EXPECT_LE(ones, 3u);
  // And SA still found the constrained optimum (-3).
  EXPECT_NEAR(result.best_energy, -3.0, 1e-9);
}

TEST(SaEngine, ExplicitT0Honored) {
  util::Rng rng(9);
  const auto q = random_qubo(8, rng);
  QuboProblem problem(q);
  SaParams params;
  params.iterations = 100;
  params.t0 = 1e-9;  // effectively greedy descent
  params.seed = 5;
  const auto result =
      simulated_annealing(problem, qubo::BitVector(8, 0), params);
  // Greedy: energy trace must be non-increasing.
  EXPECT_LE(result.final_energy, 0.0 + 1e-9);
}

TEST(SaEngine, HigherTemperatureAcceptsMoreUphill) {
  util::Rng rng(10);
  const auto q = random_qubo(12, rng);
  SaParams cold, hot;
  cold.iterations = hot.iterations = 1000;
  cold.seed = hot.seed = 31;
  cold.t0 = 1e-6;
  hot.t0 = 100.0;
  hot.t_end_frac = 0.99;  // stay hot
  QuboProblem p1(q), p2(q);
  const auto rc = simulated_annealing(p1, qubo::BitVector(12, 0), cold);
  const auto rh = simulated_annealing(p2, qubo::BitVector(12, 0), hot);
  EXPECT_GT(rh.accepted, rc.accepted);
}

}  // namespace
}  // namespace hycim::anneal
