// Unit tests of the bound-state (incremental trial-move) APIs across the
// cim layer: FilterArray bind/trial/apply, the filters' and bank's
// incremental verdicts, the VmvEngine circuit-mode bound evaluator, and
// the "same chip, fresh measurement" clone constructors.
#include <gtest/gtest.h>

#include <array>

#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/filter_array.hpp"
#include "cim/filter/filter_bank.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "cop/qkp.hpp"
#include "core/inequality_qubo.hpp"
#include "util/rng.hpp"

namespace hycim::cim {
namespace {

constexpr double kVoltTol = 1e-12;  // incremental-vs-full FP agreement

FilterArrayParams small_array_params() {
  FilterArrayParams p;
  p.rows = 4;
  return p;
}

std::vector<std::uint8_t> random_bits(util::Rng& rng, std::size_t n,
                                      double p = 0.5) {
  std::vector<std::uint8_t> x(n);
  for (auto& b : x) b = rng.uniform() < p ? 1 : 0;
  return x;
}

TEST(FilterArrayBoundState, BoundVoltageBitIdenticalToEvaluate) {
  device::VariationModel fab({}, 11);
  FilterArray array(small_array_params(), {3, 7, 2, 9, 5}, fab);
  util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_bits(rng, 5);
    array.bind(x);
    EXPECT_EQ(array.bound_voltage(), array.evaluate(x)) << "trial " << trial;
  }
}

TEST(FilterArrayBoundState, TrialMatchesFullEvaluationOfCandidate) {
  device::VariationModel fab({}, 12);
  FilterArray array(small_array_params(), {3, 7, 2, 9, 5, 1}, fab);
  util::Rng rng(2);
  auto x = random_bits(rng, 6);
  array.bind(x);
  for (std::size_t k = 0; k < 6; ++k) {
    auto candidate = x;
    candidate[k] ^= 1;
    const std::array<std::size_t, 1> flips{k};
    EXPECT_NEAR(array.trial(flips), array.evaluate(candidate), kVoltTol)
        << "bit " << k;
  }
  // Two-bit trials (the swap neighborhood).
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      auto candidate = x;
      candidate[i] ^= 1;
      candidate[j] ^= 1;
      const std::array<std::size_t, 2> flips{i, j};
      EXPECT_NEAR(array.trial(flips), array.evaluate(candidate), kVoltTol)
          << i << "," << j;
    }
  }
  // Trials leave the bound state untouched.
  EXPECT_EQ(array.bound_voltage(), array.evaluate(x));
}

TEST(FilterArrayBoundState, ApplyTracksFullEvaluationOverLongSequences) {
  device::VariationModel fab({}, 13);
  FilterArray array(small_array_params(), {4, 1, 6, 2, 8, 3, 5, 7}, fab);
  util::Rng rng(3);
  auto x = random_bits(rng, 8);
  array.bind(x);
  // Drive well past kRebindInterval to cover the periodic re-aggregation.
  for (int step = 0; step < 300; ++step) {
    const std::size_t k = rng.index(8);
    const std::array<std::size_t, 1> flips{k};
    array.apply(flips);
    x[k] ^= 1;
    ASSERT_NEAR(array.bound_voltage(), array.evaluate(x), kVoltTol)
        << "step " << step;
  }
  EXPECT_EQ(array.bound_input(), x);
}

TEST(FilterArrayBoundState, ReprogramAndAgeRebindAutomatically) {
  device::VariationModel fab({}, 14);
  FilterArray array(small_array_params(), {2, 5, 3}, fab);
  const std::vector<std::uint8_t> x{1, 0, 1};
  array.bind(x);
  util::Rng rng(9);
  array.reprogram(rng);
  EXPECT_EQ(array.bound_voltage(), array.evaluate(x));
  array.age(3600.0);
  EXPECT_EQ(array.bound_voltage(), array.evaluate(x));
}

TEST(FilterArrayBoundState, MisuseThrows) {
  device::VariationModel fab({}, 15);
  FilterArray array(small_array_params(), {2, 5, 3}, fab);
  const std::array<std::size_t, 1> flips{0};
  EXPECT_THROW(array.bound_voltage(), std::logic_error);
  EXPECT_THROW(array.trial(flips), std::logic_error);
  EXPECT_THROW(array.apply(flips), std::logic_error);
  EXPECT_THROW(array.bound_input(), std::logic_error);
  array.bind(std::vector<std::uint8_t>{1, 0, 1});
  const std::array<std::size_t, 1> bad{3};
  EXPECT_THROW(array.trial(bad), std::invalid_argument);
  EXPECT_THROW(array.apply(bad), std::invalid_argument);
  EXPECT_THROW(array.bind(std::vector<std::uint8_t>{1, 0}),
               std::invalid_argument);
}

// Two identically fabricated filters (same seeds ⇒ same noise streams):
// one judged through the full path, one through the bound-state path.
// Verdicts and statistics must agree step for step.
TEST(InequalityFilterBoundState, TrialVerdictsMatchFullPath) {
  InequalityFilterParams p;
  p.array.rows = 8;
  p.fab_seed = 21;
  p.decision_seed = 77;  // realistic corners *with* comparator noise
  const std::vector<long long> weights{5, 9, 3, 7, 4, 8, 2, 6};
  InequalityFilter full(p, weights, 18);
  InequalityFilter incremental(p, weights, 18);

  util::Rng rng(4);
  auto x = random_bits(rng, weights.size(), 0.3);
  incremental.bind(x);
  for (int step = 0; step < 400; ++step) {
    const std::size_t k = rng.index(weights.size());
    auto candidate = x;
    candidate[k] ^= 1;
    const std::array<std::size_t, 1> flips{k};
    const bool want = full.is_feasible(candidate);
    const bool got = incremental.trial_feasible(flips);
    ASSERT_EQ(got, want) << "step " << step;
    if (got && rng.uniform() < 0.5) {  // commit some accepted moves
      incremental.apply(flips);
      x = candidate;
    }
  }
  EXPECT_EQ(incremental.stats().evaluations, full.stats().evaluations);
  EXPECT_EQ(incremental.stats().feasible, full.stats().feasible);
  EXPECT_EQ(incremental.stats().infeasible, full.stats().infeasible);
}

TEST(EqualityFilterBoundState, TrialVerdictsMatchFullPath) {
  InequalityFilterParams p;
  p.array.rows = 4;
  p.fab_seed = 31;
  p.decision_seed = 99;
  const std::vector<long long> weights{1, 1, 1, 1, 1};  // one-hot cardinality
  InequalityFilter full(p, weights, 1, Relation::kEqual);
  InequalityFilter incremental(p, weights, 1, Relation::kEqual);

  util::Rng rng(5);
  std::vector<std::uint8_t> x{0, 0, 1, 0, 0};
  incremental.bind(x);
  for (int step = 0; step < 300; ++step) {
    const std::size_t i = rng.index(weights.size());
    const std::size_t j = rng.index(weights.size());
    if (i == j) continue;
    auto candidate = x;
    candidate[i] ^= 1;
    candidate[j] ^= 1;
    const std::array<std::size_t, 2> flips{i, j};
    const bool want = full.is_feasible(candidate);
    const bool got = incremental.trial_feasible(flips);
    ASSERT_EQ(got, want) << "step " << step;
    if (got && rng.uniform() < 0.5) {
      incremental.apply(flips);
      x = candidate;
    }
  }
}

// The bank's trial path is incidence-gated: a flip only measures the
// filters whose constraint rows contain the flipped variable; the others
// keep their matchline (and verdict) without consuming a comparator
// decision.  In the noiseless corner the measured verdicts are exact, so
// against a feasibility-preserving walk the gated AND equals the full
// exact check — and the per-filter evaluation counters expose exactly
// which filters were measured.
TEST(FilterBankBoundState, IncidenceGatedTrialsMatchExactVerdicts) {
  InequalityFilterParams p;
  p.array.rows = 4;
  p.fab_seed = 41;
  p.variation = device::ideal_variation();
  p.comparator.sigma_offset = 0.0;
  p.comparator.sigma_noise = 0.0;
  // Variable 2 sits in both constraints, variable 6 in neither.
  std::vector<LinearConstraint> cs(2);
  cs[0].weights = {3, 4, 2, 0, 0, 0, 0};
  cs[0].capacity = 6;
  cs[1].weights = {0, 0, 1, 5, 2, 4, 0};
  cs[1].capacity = 7;
  FilterBank bank(p, cs, {}, 7);

  util::Rng rng(6);
  auto x = random_bits(rng, 7, 0.0);  // start empty: feasible
  bank.bind(x);
  ASSERT_TRUE(bank.bound());
  std::array<std::size_t, 2> expected_evals{0, 0};
  for (int step = 0; step < 300; ++step) {
    const std::size_t k = rng.index(7);
    auto candidate = x;
    candidate[k] ^= 1;
    const std::array<std::size_t, 1> flips{k};
    // Expected gated verdict: AND over the incident filters' exact checks.
    // Because only exact-feasible moves are committed below, untouched
    // filters are satisfied by the invariant, so this also equals the
    // full exact feasibility of the candidate.
    bool want = true;
    for (std::size_t i = 0; i < bank.size(); ++i) {
      if (!bank.touches(i, k)) continue;
      ++expected_evals[i];
      long long total = 0;
      for (std::size_t v = 0; v < 7; ++v) {
        if (candidate[v]) total += cs[i].weights[v];
      }
      want = want && total <= cs[i].capacity;
      if (!want) break;  // short-circuit: later filters are not measured
    }
    const bool got = bank.trial_feasible(flips);
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(got, bank.exact_feasible(candidate)) << "step " << step;
    if (got && rng.uniform() < 0.5) {
      bank.apply(flips);
      x = candidate;
    }
  }
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(bank.filter(i).stats().evaluations, expected_evals[i])
        << "filter " << i;
  }
}

TEST(InequalityFilterClone, SameChipFreshStreamMatchesRefabrication) {
  InequalityFilterParams p;
  p.array.rows = 8;
  p.fab_seed = 51;
  const std::vector<long long> weights{5, 9, 3, 7, 4, 8};
  InequalityFilter proto(p, weights, 15);

  InequalityFilterParams p2 = p;
  p2.decision_seed = 12345;
  InequalityFilter fabricated(p2, weights, 15);  // the expensive way
  InequalityFilter cloned(proto, 12345);         // the cheap way

  EXPECT_EQ(cloned.stats().evaluations, 0u);
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto x = random_bits(rng, weights.size(), 0.4);
    ASSERT_EQ(cloned.is_feasible(x), fabricated.is_feasible(x))
        << "trial " << trial;
  }
  EXPECT_EQ(cloned.replica_voltage(), fabricated.replica_voltage());
  EXPECT_EQ(cloned.margin_voltage(), fabricated.margin_voltage());
}

/// A circuit-mode engine over `q` at the 7-bit budget.
VmvEngine circuit_engine(const qubo::QuboMatrix& q, std::uint64_t fab_seed) {
  VmvEngineParams p;
  p.fab_seed = fab_seed;
  p.adc.bits = 8;
  return VmvEngine(*q.freeze(), 7, p);
}

TEST(VmvEngineBoundState, TrialMatchesFullCandidateEnergy) {
  cop::QkpGeneratorParams gp;
  gp.n = 16;
  gp.density_percent = 60;
  const auto inst = cop::generate_qkp(gp, 61);
  const auto form = core::to_inequality_qubo(inst);
  VmvEngine incremental = circuit_engine(form.q, 8);
  VmvEngine oracle = circuit_engine(form.q, 8);  // identical fabrication

  util::Rng rng(8);
  auto x = random_bits(rng, inst.n, 0.4);
  incremental.bind(x);
  EXPECT_EQ(incremental.bound_energy(), oracle.energy(x));
  for (int step = 0; step < 120; ++step) {
    const std::size_t k = rng.index(inst.n);
    auto candidate = x;
    candidate[k] ^= 1;
    const std::array<std::size_t, 1> flips{k};
    ASSERT_NEAR(incremental.trial(flips), oracle.energy(candidate), 1e-9)
        << "step " << step;
    if (rng.uniform() < 0.4) {
      incremental.apply(flips);
      x = candidate;
      ASSERT_NEAR(incremental.bound_energy(), oracle.energy(x), 1e-9)
          << "step " << step;
    }
  }
  EXPECT_EQ(incremental.bound_input(), x);
}

TEST(VmvEngineBoundState, SwapTrialsMatchFullCandidateEnergy) {
  cop::QkpGeneratorParams gp;
  gp.n = 12;
  gp.density_percent = 60;
  const auto inst = cop::generate_qkp(gp, 62);
  const auto form = core::to_inequality_qubo(inst);
  VmvEngine incremental = circuit_engine(form.q, 9);
  VmvEngine oracle = circuit_engine(form.q, 9);

  util::Rng rng(9);
  auto x = random_bits(rng, inst.n, 0.5);
  incremental.bind(x);
  for (int step = 0; step < 60; ++step) {
    const std::size_t i = rng.index(inst.n);
    const std::size_t j = rng.index(inst.n);
    if (i == j) continue;
    auto candidate = x;
    candidate[i] ^= 1;
    candidate[j] ^= 1;
    const std::array<std::size_t, 2> flips{i, j};
    ASSERT_NEAR(incremental.trial(flips), oracle.energy(candidate), 1e-9)
        << "step " << step;
  }
}

}  // namespace
}  // namespace hycim::cim
