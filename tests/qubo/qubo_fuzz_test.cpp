// Differential fuzzing of the QUBO core: QuboMatrix / IncrementalEvaluator
// against a deliberately naive reference implementation, across random
// matrices of several sizes.  Catches packing/index bugs that hand-picked
// cases miss.
#include <gtest/gtest.h>

#include "qubo/energy.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim::qubo {
namespace {

/// Naive reference: full symmetric map, O(n²) everything.
struct NaiveQubo {
  std::size_t n;
  std::vector<double> coeff;  // [i*n + j], only i <= j populated
  double offset = 0.0;

  explicit NaiveQubo(std::size_t size) : n(size), coeff(size * size, 0.0) {}

  double energy(const BitVector& x) const {
    double e = offset;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        if (x[i] && x[j]) e += coeff[i * n + j];
      }
    }
    return e;
  }
};

class QuboFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuboFuzz, EnergyMatchesNaiveReference) {
  const std::size_t n = GetParam();
  util::Rng rng(9000 + n);
  for (int matrix_trial = 0; matrix_trial < 5; ++matrix_trial) {
    QuboMatrix q(n);
    NaiveQubo naive(n);
    const double offset = rng.uniform(-10, 10);
    q.set_offset(offset);
    naive.offset = offset;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        if (!rng.bernoulli(0.6)) continue;
        const double v = rng.uniform(-50, 50);
        // Exercise both index orders and add/set paths.
        if (rng.bernoulli(0.5)) {
          q.set(j, i, v);
        } else {
          q.set(i, j, v / 2);
          q.add(j, i, v / 2);
        }
        naive.coeff[i * n + j] = v;
      }
    }
    for (int x_trial = 0; x_trial < 20; ++x_trial) {
      const auto x = rng.random_bits(n, rng.uniform(0.1, 0.9));
      EXPECT_NEAR(q.energy(x), naive.energy(x), 1e-9);
    }
  }
}

TEST_P(QuboFuzz, DeltaMatchesEnergyDifference) {
  const std::size_t n = GetParam();
  util::Rng rng(9100 + n);
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-20, 20));
  }
  for (int trial = 0; trial < 50; ++trial) {
    BitVector x = rng.random_bits(n);
    const std::size_t k = rng.index(n);
    const double before = q.energy(x);
    const double delta = q.delta_energy(x, k);
    x[k] ^= 1;
    EXPECT_NEAR(q.energy(x), before + delta, 1e-8);
  }
}

TEST_P(QuboFuzz, IncrementalWalkNeverDiverges) {
  const std::size_t n = GetParam();
  util::Rng rng(9200 + n);
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-20, 20));
  }
  IncrementalEvaluator eval(q.freeze(), rng.random_bits(n));
  for (int step = 0; step < 500; ++step) {
    if (rng.bernoulli(0.3) && n >= 2) {
      std::size_t i = rng.index(n), j = rng.index(n);
      while (j == i) j = rng.index(n);
      const double predicted = eval.energy() + eval.delta_pair(i, j);
      eval.flip_pair(i, j);
      ASSERT_NEAR(eval.energy(), predicted, 1e-6) << "pair step " << step;
    } else {
      const std::size_t k = rng.index(n);
      const double predicted = eval.energy() + eval.delta(k);
      eval.flip(k);
      ASSERT_NEAR(eval.energy(), predicted, 1e-6) << "step " << step;
    }
  }
  EXPECT_NEAR(eval.energy(), eval.recompute(), 1e-6);
}

TEST_P(QuboFuzz, DeltaPairConsistentWithTwoSequentialFlips) {
  const std::size_t n = GetParam();
  if (n < 2) GTEST_SKIP();
  util::Rng rng(9300 + n);
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-20, 20));
  }
  IncrementalEvaluator eval(q.freeze(), rng.random_bits(n));
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t i = rng.index(n), j = rng.index(n);
    while (j == i) j = rng.index(n);
    const double pair = eval.delta_pair(i, j);
    const double e0 = eval.energy();
    eval.flip(i);
    eval.flip(j);
    EXPECT_NEAR(eval.energy(), e0 + pair, 1e-7);
    eval.flip(i);
    eval.flip(j);  // restore
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuboFuzz,
                         ::testing::Values<std::size_t>(1, 2, 3, 7, 16, 40),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hycim::qubo
