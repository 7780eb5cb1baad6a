// The sparsity layer: NeighborIndex structure, density measurement, the
// frozen matrix's kernel choice at kSparseDensityThreshold, and the
// sparse IncrementalEvaluator's bit-identity to
// the dense kernel (flip, flip_pair, delta, delta_pair, reset) on
// randomized low-density matrices — the property behind the "sparsity
// changes cost, not trajectories" contract.
#include <gtest/gtest.h>

#include "qubo/energy.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim::qubo {
namespace {

/// Random upper-triangular matrix with the given off-diagonal fill rate.
QuboMatrix random_matrix(std::size_t n, double density, util::Rng& rng) {
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) q.set(i, i, rng.uniform(-5.0, 5.0));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) q.set(i, j, rng.uniform(-5.0, 5.0));
    }
  }
  return q;
}

TEST(NeighborIndex, MirrorsTheMatrixStructure) {
  QuboMatrix q(4);
  q.set(0, 0, 1.0);
  q.set(0, 2, -2.0);
  q.set(1, 3, 3.0);
  q.set(2, 3, 4.0);
  const NeighborIndex idx(q);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_DOUBLE_EQ(idx.diagonal(0), 1.0);
  EXPECT_DOUBLE_EQ(idx.diagonal(1), 0.0);

  ASSERT_EQ(idx.degree(0), 1u);
  EXPECT_EQ(idx.neighbors(0)[0].index, 2u);
  EXPECT_DOUBLE_EQ(idx.neighbors(0)[0].value, -2.0);
  ASSERT_EQ(idx.degree(2), 2u);  // partners 0 and 3, ascending
  EXPECT_EQ(idx.neighbors(2)[0].index, 0u);
  EXPECT_EQ(idx.neighbors(2)[1].index, 3u);
  EXPECT_EQ(idx.link_count(), 6u);  // 3 couplings, both sides
  EXPECT_EQ(idx.max_degree(), 2u);
}

TEST(NeighborIndex, DensityCountsUpperTriangleFill) {
  QuboMatrix q(4);  // 10 packed entries
  EXPECT_DOUBLE_EQ(q.freeze()->density(), 0.0);
  q.set(0, 0, 1.0);
  q.set(1, 3, 2.0);
  EXPECT_DOUBLE_EQ(q.freeze()->density(), 0.2);
  EXPECT_DOUBLE_EQ(QuboMatrix().freeze()->density(), 0.0);
}

TEST(FrozenQubo, KernelFlipsToDenseJustAboveTheThreshold) {
  // n = 19: 190 packed entries, so 76 nonzeros sit exactly at the 0.4
  // threshold and one entry more or less lands just above or below it.
  const std::size_t n = 19;
  const std::size_t at_threshold = 76;
  ASSERT_EQ(static_cast<double>(at_threshold) / (n * (n + 1) / 2),
            kSparseDensityThreshold);
  const auto frozen_with = [&](std::size_t nonzeros) {
    QuboMatrix q(n);
    std::size_t set = 0;
    for (std::size_t i = 0; i < n && set < nonzeros; ++i) {
      for (std::size_t j = i; j < n && set < nonzeros; ++j, ++set) {
        q.set(i, j, -1.0);
      }
    }
    return q.freeze();
  };
  EXPECT_EQ(frozen_with(at_threshold - 1)->kernel(), Kernel::kSparse);
  EXPECT_EQ(frozen_with(at_threshold)->kernel(), Kernel::kSparse);
  EXPECT_EQ(frozen_with(at_threshold + 1)->kernel(), Kernel::kDense);
  EXPECT_EQ(QuboMatrix().freeze()->kernel(), Kernel::kSparse);  // density 0
  EXPECT_STREQ(kernel_name(Kernel::kSparse), "sparse");
  EXPECT_STREQ(kernel_name(Kernel::kDense), "dense");
}

TEST(NeighborIndex, ReZeroedAndRewrittenCellsLinkOnce) {
  QuboMatrix q(6);
  q.set(1, 4, 3.0);
  q.set(2, 5, 2.0);
  q.set(1, 4, 0.0);  // back to zero before the build: no link
  q.set(0, 2, 1.0);
  q.set(0, 2, 0.0);
  q.set(0, 2, 7.0);  // zero → nonzero twice: one link, last value
  const NeighborIndex idx(q);
  EXPECT_EQ(idx.degree(1), 0u);
  EXPECT_EQ(idx.degree(4), 0u);
  ASSERT_EQ(idx.degree(0), 1u);
  EXPECT_EQ(idx.neighbors(0)[0].index, 2u);
  EXPECT_DOUBLE_EQ(idx.neighbors(0)[0].value, 7.0);
  EXPECT_EQ(idx.degree(2), 2u);  // partners 0 and 5
  EXPECT_EQ(idx.link_count(), 4u);
}

TEST(SparseEvaluator, BitIdenticalToDenseOverRandomWalks) {
  util::Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 16 + 8 * trial;
    const FrozenQuboPtr q = random_matrix(n, 0.15, rng).freeze();
    const BitVector x0 = rng.random_bits(n);
    IncrementalEvaluator dense(q, x0, Kernel::kDense);
    IncrementalEvaluator sparse(q, x0, Kernel::kSparse);
    ASSERT_EQ(sparse.kernel(), Kernel::kSparse);
    EXPECT_EQ(dense.energy(), sparse.energy());
    for (int step = 0; step < 400; ++step) {
      const std::size_t i = rng.index(n);
      const std::size_t j = (i + 1 + rng.index(n - 1)) % n;
      // Trial deltas agree bitwise…
      ASSERT_EQ(dense.delta(i), sparse.delta(i)) << "step " << step;
      ASSERT_EQ(dense.delta_pair(i, j), sparse.delta_pair(i, j))
          << "step " << step;
      // …and so do committed walks, through both move arities.
      if (step % 3 == 0) {
        dense.flip_pair(i, j);
        sparse.flip_pair(i, j);
      } else {
        dense.flip(i);
        sparse.flip(i);
      }
      ASSERT_EQ(dense.energy(), sparse.energy()) << "step " << step;
    }
    EXPECT_EQ(dense.state(), sparse.state());
    // reset() streams the shared index and lands on the same fields.
    const BitVector x1 = rng.random_bits(n);
    dense.reset(x1);
    sparse.reset(x1);
    EXPECT_EQ(dense.energy(), sparse.energy());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(dense.delta(k), sparse.delta(k)) << "bit " << k;
    }
  }
}

TEST(SparseEvaluator, RunsTheFrozenMatrixKernel) {
  util::Rng rng(11);
  const FrozenQuboPtr sparse_q = random_matrix(24, 0.1, rng).freeze();
  const FrozenQuboPtr dense_q = random_matrix(24, 0.9, rng).freeze();
  ASSERT_EQ(sparse_q->kernel(), Kernel::kSparse);
  ASSERT_EQ(dense_q->kernel(), Kernel::kDense);
  EXPECT_EQ(IncrementalEvaluator(sparse_q, BitVector(24, 0)).kernel(),
            Kernel::kSparse);
  EXPECT_EQ(IncrementalEvaluator(dense_q, BitVector(24, 0)).kernel(),
            Kernel::kDense);
}

}  // namespace
}  // namespace hycim::qubo
