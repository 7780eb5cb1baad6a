// Bitwise equivalence of the word-parallel dense path against a scalar
// reference evaluator (a verbatim copy of the pre-word-parallel at()-based
// kernel), over random walks exercising flip, flip_pair, and reset — plus
// the solver-level pin that the SoA batched-replica layout changes layout,
// not behavior: a tempered solve batched through anneal::QuboReplicaBatch
// must be indistinguishable from the same solve on per-replica chip clones.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "anneal/strategy.hpp"
#include "cop/adapters.hpp"
#include "cop/maxcut.hpp"
#include "core/hycim_solver.hpp"
#include "qubo/energy.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

using qubo::BitVector;
using qubo::QuboMatrix;

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

/// The scalar dense evaluator the word-parallel kernel replaced: guarded
/// per-element at() walks over the packed triangle.  Kept verbatim as the
/// ground truth the contiguous mirror-row kernel must match bit-for-bit.
class ScalarReference {
 public:
  ScalarReference(const QuboMatrix& q, BitVector x0)
      : q_(&q), x_(std::move(x0)) {
    rebuild();
  }

  double energy() const { return energy_; }
  const BitVector& state() const { return x_; }

  double delta(std::size_t k) const {
    return (x_[k] ? -1.0 : 1.0) * phi_[k];
  }
  double delta_pair(std::size_t i, std::size_t j) const {
    const double si = x_[i] ? -1.0 : 1.0;
    const double sj = x_[j] ? -1.0 : 1.0;
    return delta(i) + delta(j) + si * sj * q_->at(i, j);
  }
  void flip(std::size_t k) {
    energy_ += delta(k);
    const double sign = x_[k] ? -1.0 : 1.0;
    x_[k] ^= 1;
    for (std::size_t i = 0; i < k; ++i) phi_[i] += sign * q_->at(i, k);
    for (std::size_t j = k + 1; j < x_.size(); ++j) {
      phi_[j] += sign * q_->at(k, j);
    }
  }
  void flip_pair(std::size_t i, std::size_t j) {
    flip(i);
    flip(j);
  }
  void reset(BitVector x0) {
    x_ = std::move(x0);
    rebuild();
  }

 private:
  void rebuild() {
    const std::size_t n = x_.size();
    phi_.assign(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      double s = q_->at(k, k);
      for (std::size_t i = 0; i < k; ++i) {
        if (x_[i]) s += q_->at(i, k);
      }
      for (std::size_t j = k + 1; j < n; ++j) {
        if (x_[j]) s += q_->at(k, j);
      }
      phi_[k] = s;
    }
    energy_ = q_->energy(x_);
  }

  const QuboMatrix* q_;
  BitVector x_;
  std::vector<double> phi_;
  double energy_ = 0.0;
};

TEST(WordParallel, DenseKernelBitIdenticalToScalarReference) {
  util::Rng rng(41);
  // Sizes straddling the 64-bit word boundary, fills from sparse (zeros
  // dominate the mirror rows) to full.
  const struct {
    std::size_t n;
    double density;
  } cases[] = {{17, 1.0}, {63, 0.5}, {64, 0.8}, {65, 0.3}, {130, 0.6}};
  for (const auto& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n));
    const QuboMatrix q = random_matrix(c.n, c.density, rng);
    const BitVector x0 = rng.random_bits(c.n);
    ScalarReference ref(q, x0);
    qubo::IncrementalEvaluator word(q.freeze(), x0, qubo::Kernel::kDense);
    ASSERT_EQ(word.energy(), ref.energy());
    for (int step = 0; step < 500; ++step) {
      const std::size_t i = rng.index(c.n);
      const std::size_t j = (i + 1 + rng.index(c.n - 1)) % c.n;
      ASSERT_EQ(word.delta(i), ref.delta(i)) << "step " << step;
      ASSERT_EQ(word.delta_pair(i, j), ref.delta_pair(i, j))
          << "step " << step;
      switch (step % 7) {
        case 3:
          word.flip_pair(i, j);
          ref.flip_pair(i, j);
          break;
        case 6: {  // periodic reset: rebuild path, also bit-identical
          const BitVector x1 = rng.random_bits(c.n);
          word.reset(x1);
          ref.reset(x1);
          break;
        }
        default:
          word.flip(i);
          ref.flip(i);
      }
      ASSERT_EQ(word.energy(), ref.energy()) << "step " << step;
    }
    EXPECT_EQ(word.state(), ref.state());
    for (std::size_t k = 0; k < c.n; ++k) {
      ASSERT_EQ(word.delta(k), ref.delta(k)) << "final bit " << k;
    }
  }
}

/// A pure-QUBO tempered solve, which HyCimSolver batches into one SoA
/// arena — unless `cloned_chips` turns on check_incremental, which keeps
/// per-replica chip clones and draws no randomness of its own.
core::SolveResult tempered_maxcut_solve(bool cloned_chips,
                                        std::uint64_t run_seed) {
  const auto g = cop::generate_maxcut(60, 0.5, 13, 1.0, 3.0);
  core::HyCimConfig config;
  config.sa.iterations = 400;
  config.search = anneal::TemperingParams{};  // 4 replicas
  config.fidelity = cim::VmvMode::kIdeal;
  config.filter_mode = core::FilterMode::kSoftware;
  config.check_incremental = cloned_chips;
  core::HyCimSolver solver(cop::to_constrained_form(g), config);
  util::Rng rng(run_seed);  // same x0 both ways
  return solver.solve(rng.random_bits(solver.size()), run_seed);
}

TEST(WordParallel, SoaReplicaBatchMatchesClonedChips) {
  for (const std::uint64_t run_seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("run_seed=" + std::to_string(run_seed));
    const auto soa = tempered_maxcut_solve(false, run_seed);
    const auto cloned = tempered_maxcut_solve(true, run_seed);
    EXPECT_EQ(soa.best_energy, cloned.best_energy);  // bitwise
    EXPECT_EQ(soa.best_x, cloned.best_x);
    EXPECT_EQ(soa.sa.evaluated, cloned.sa.evaluated);
    EXPECT_EQ(soa.sa.accepted, cloned.sa.accepted);
    EXPECT_EQ(soa.sa.proposed, cloned.sa.proposed);
    EXPECT_EQ(soa.exchanges_proposed, cloned.exchanges_proposed);
    EXPECT_EQ(soa.exchanges_accepted, cloned.exchanges_accepted);
    ASSERT_EQ(soa.exchange_trace.size(), cloned.exchange_trace.size());
    for (std::size_t e = 0; e < soa.exchange_trace.size(); ++e) {
      EXPECT_EQ(soa.exchange_trace[e], cloned.exchange_trace[e])
          << "exchange " << e;
    }
  }
}

}  // namespace
}  // namespace hycim
