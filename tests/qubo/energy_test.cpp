#include "qubo/energy.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace hycim::qubo {
namespace {

QuboMatrix random_qubo(std::size_t n, util::Rng& rng) {
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) q.set(i, j, rng.uniform(-10, 10));
  }
  q.set_offset(rng.uniform(-5, 5));
  return q;
}

TEST(IncrementalEvaluator, SizeMismatchThrows) {
  QuboMatrix q(3);
  EXPECT_THROW(IncrementalEvaluator(q.freeze(), BitVector(2, 0)),
               std::invalid_argument);
}

TEST(IncrementalEvaluator, InitialEnergyMatchesMatrix) {
  util::Rng rng(1);
  const QuboMatrix q = random_qubo(10, rng);
  const BitVector x = rng.random_bits(10);
  IncrementalEvaluator eval(q.freeze(), x);
  EXPECT_NEAR(eval.energy(), q.energy(x), 1e-9);
}

TEST(IncrementalEvaluator, DeltaMatchesMatrixDelta) {
  util::Rng rng(2);
  const QuboMatrix q = random_qubo(15, rng);
  const BitVector x = rng.random_bits(15);
  IncrementalEvaluator eval(q.freeze(), x);
  for (std::size_t k = 0; k < 15; ++k) {
    EXPECT_NEAR(eval.delta(k), q.delta_energy(x, k), 1e-9) << "bit " << k;
  }
}

TEST(IncrementalEvaluator, LongFlipSequenceStaysConsistent) {
  util::Rng rng(3);
  const QuboMatrix q = random_qubo(20, rng);
  IncrementalEvaluator eval(q.freeze(), rng.random_bits(20));
  for (int step = 0; step < 2000; ++step) {
    const std::size_t k = rng.index(20);
    const double predicted = eval.energy() + eval.delta(k);
    eval.flip(k);
    EXPECT_NEAR(eval.energy(), predicted, 1e-6);
  }
  // After the walk, the tracked energy still matches a full recompute.
  EXPECT_NEAR(eval.energy(), eval.recompute(), 1e-6);
}

TEST(IncrementalEvaluator, FlipTogglesState) {
  QuboMatrix q(4);
  IncrementalEvaluator eval(q.freeze(), BitVector{0, 1, 0, 1});
  eval.flip(0);
  eval.flip(1);
  EXPECT_EQ(eval.state(), (BitVector{1, 0, 0, 1}));
}

TEST(IncrementalEvaluator, ResetReplacesState) {
  util::Rng rng(4);
  const QuboMatrix q = random_qubo(8, rng);
  IncrementalEvaluator eval(q.freeze(), BitVector(8, 0));
  const BitVector x = rng.random_bits(8);
  eval.reset(x);
  EXPECT_EQ(eval.state(), x);
  EXPECT_NEAR(eval.energy(), q.energy(x), 1e-9);
}

TEST(IncrementalEvaluator, ResetSizeMismatchThrows) {
  QuboMatrix q(3);
  IncrementalEvaluator eval(q.freeze(), BitVector(3, 0));
  EXPECT_THROW(eval.reset(BitVector(4, 0)), std::invalid_argument);
}

TEST(IncrementalEvaluator, DoubleFlipIsIdentity) {
  util::Rng rng(5);
  const QuboMatrix q = random_qubo(10, rng);
  const BitVector x = rng.random_bits(10);
  IncrementalEvaluator eval(q.freeze(), x);
  const double e0 = eval.energy();
  eval.flip(3);
  eval.flip(3);
  EXPECT_EQ(eval.state(), x);
  EXPECT_NEAR(eval.energy(), e0, 1e-9);
}

TEST(IncrementalEvaluator, OffsetIncludedInEnergy) {
  QuboMatrix q(2);
  q.set_offset(100.0);
  IncrementalEvaluator eval(q.freeze(), BitVector{0, 0});
  EXPECT_DOUBLE_EQ(eval.energy(), 100.0);
}

}  // namespace
}  // namespace hycim::qubo
