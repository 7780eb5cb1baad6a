// Bitwise equivalence of the word-parallel dense path against a scalar
// reference evaluator (a verbatim copy of the pre-word-parallel at()-based
// kernel), over random walks exercising flip, flip_pair, and reset, on
// double and on int32 mirror rows — plus the solver-level pin that the
// replica layout changes cost, not behavior: a tempered solve of a
// row-less form on plain anneal::QuboProblems must be indistinguishable
// from the same solve on per-replica chip clones.
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

/// A random coefficient: uniform in [-5, 5), or for `integral` matrices an
/// integer anywhere in int32's symmetric range, its ends ±(2^31 − 1)
/// included on purpose.
double random_coefficient(bool integral, util::Rng& rng) {
  if (!integral) return rng.uniform(-5.0, 5.0);
  constexpr long long kMax = 2147483647;  // 2^31 − 1
  switch (rng.index(8)) {
    case 0:
      return static_cast<double>(kMax);
    case 1:
      return static_cast<double>(-kMax);
    default:
      return static_cast<double>(rng.uniform_int(-kMax, kMax));
  }
}

QuboMatrix random_matrix(std::size_t n, double density, bool integral,
                         util::Rng& rng) {
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) q.set(i, i, random_coefficient(integral, rng));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) {
        q.set(i, j, random_coefficient(integral, rng));
      }
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
  // dominate the mirror rows) to full.  Fractional matrices run on double
  // mirror rows; integral ones, with coefficients up to ±(2^31 − 1), on
  // int32 rows.
  const struct {
    std::size_t n;
    double density;
    bool integral;
  } cases[] = {{17, 1.0, false},  {63, 0.5, false}, {64, 0.8, false},
               {65, 0.3, false},  {130, 0.6, false}, {17, 1.0, true},
               {63, 0.05, true},  {64, 0.9, true},   {65, 0.1, true},
               {130, 0.02, true}, {130, 0.7, true}};
  for (const auto& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " density=" +
                 std::to_string(c.density) +
                 (c.integral ? " integral" : " fractional"));
    const QuboMatrix q = random_matrix(c.n, c.density, c.integral, rng);
    const BitVector x0 = rng.random_bits(c.n);
    ScalarReference ref(q, x0);
    const qubo::FrozenQuboPtr frozen = q.freeze();
    ASSERT_EQ(frozen->dense_rows().narrow(), c.integral);
    qubo::IncrementalEvaluator word(frozen, x0, qubo::Kernel::kDense);
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

/// A pure-QUBO tempered solve, which HyCimSolver runs on plain
/// QuboProblems — unless `cloned_chips` turns on check_incremental, which
/// keeps per-replica chip clones and draws no randomness of its own.
core::SolveResult tempered_maxcut_solve(core::FilterMode mode,
                                        bool cloned_chips,
                                        std::uint64_t run_seed) {
  const auto g = cop::generate_maxcut(60, 0.5, 13, 1.0, 3.0);
  core::HyCimConfig config;
  config.sa.iterations = 400;
  config.search = anneal::TemperingParams{};  // 4 replicas
  config.fidelity = cim::VmvMode::kIdeal;
  config.filter_mode = mode;
  config.check_incremental = cloned_chips;
  core::HyCimSolver solver(cop::to_constrained_form(g), config);
  util::Rng rng(run_seed);  // same x0 both ways
  return solver.solve(rng.random_bits(solver.size()), run_seed);
}

TEST(WordParallel, PlainReplicasMatchClonedChips) {
  for (const auto mode :
       {core::FilterMode::kSoftware, core::FilterMode::kHardware}) {
    for (const std::uint64_t run_seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(mode == core::FilterMode::kSoftware
                                   ? "software"
                                   : "hardware") +
                   " filters, run_seed=" + std::to_string(run_seed));
      const auto plain = tempered_maxcut_solve(mode, false, run_seed);
      const auto cloned = tempered_maxcut_solve(mode, true, run_seed);
      EXPECT_EQ(plain.best_energy, cloned.best_energy);  // bitwise
      EXPECT_EQ(plain.best_x, cloned.best_x);
      EXPECT_EQ(plain.sa.evaluated, cloned.sa.evaluated);
      EXPECT_EQ(plain.sa.accepted, cloned.sa.accepted);
      EXPECT_EQ(plain.sa.proposed, cloned.sa.proposed);
      EXPECT_EQ(plain.exchanges_proposed, cloned.exchanges_proposed);
      EXPECT_EQ(plain.exchanges_accepted, cloned.exchanges_accepted);
      ASSERT_EQ(plain.exchange_trace.size(), cloned.exchange_trace.size());
      for (std::size_t e = 0; e < plain.exchange_trace.size(); ++e) {
        EXPECT_EQ(plain.exchange_trace[e], cloned.exchange_trace[e])
            << "exchange " << e;
      }
    }
  }
}

}  // namespace
}  // namespace hycim
