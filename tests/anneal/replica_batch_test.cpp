// The SoA replica batch: each Replica view must perform bit-for-bit the
// float operations of an IncrementalEvaluator-backed problem (same
// kernels, different storage), so whole SA walks driven by identical rngs
// must produce identical SaResults — the property that lets the solver
// swap chip clones for batch views without moving the fig10 fingerprint.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "anneal/replica_batch.hpp"
#include "anneal/sa_engine.hpp"
#include "qubo/energy.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {
namespace {

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

/// The reference: the AoS shape the batch replaces — one
/// IncrementalEvaluator per replica, each with its own heap state.
class EvalProblem final : public SaProblem {
 public:
  EvalProblem(const QuboMatrix& q, qubo::Kernel kernel)
      : eval_(q.freeze(), qubo::BitVector(q.size(), 0), kernel) {}

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
  bool supports_swaps() const override { return true; }

 private:
  qubo::IncrementalEvaluator eval_;
};

void expect_same_result(const SaResult& a, const SaResult& b) {
  EXPECT_EQ(a.best_energy, b.best_energy);    // bitwise
  EXPECT_EQ(a.final_energy, b.final_energy);  // bitwise
  EXPECT_EQ(a.best_x, b.best_x);
  EXPECT_EQ(a.final_x, b.final_x);
  EXPECT_EQ(a.proposed, b.proposed);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_metropolis, b.rejected_metropolis);
}

/// Drives R batch views and R reference problems through interleaved
/// fixed-temperature walk segments with pairwise-identical rngs.  The
/// interleaving (replica 0 advances, then replica 1, then back to 0, …)
/// also pins slice independence: a view's segment must not perturb its
/// siblings' arenas.
void run_batched_vs_reference(const QuboMatrix& q, qubo::Kernel kernel) {
  const std::size_t n = q.size();
  const std::size_t replicas = 3;
  QuboReplicaBatch batch(q.freeze(), replicas, kernel);
  ASSERT_EQ(batch.replicas(), replicas);
  ASSERT_EQ(batch.num_bits(), n);

  SaParams params;
  params.iterations = 300;
  params.swap_probability = 0.3;

  std::vector<std::unique_ptr<EvalProblem>> refs;
  std::vector<std::unique_ptr<SaWalk>> batch_walks;
  std::vector<std::unique_ptr<SaWalk>> ref_walks;
  util::Rng seeder(99);
  for (std::size_t r = 0; r < replicas; ++r) {
    const qubo::BitVector x0 = seeder.random_bits(n);
    const std::uint64_t walk_seed = 1000 + 17 * r;
    const double temperature = 2.0 / static_cast<double>(r + 1);
    refs.push_back(std::make_unique<EvalProblem>(q, kernel));
    batch_walks.push_back(
        std::make_unique<SaWalk>(batch.problem(r), x0, params,
                                 util::Rng(walk_seed), temperature));
    ref_walks.push_back(std::make_unique<SaWalk>(
        *refs[r], x0, params, util::Rng(walk_seed), temperature));
  }
  for (std::size_t segment = 1; segment <= 6; ++segment) {
    const std::size_t target = segment * params.iterations / 6;
    for (std::size_t r = 0; r < replicas; ++r) {
      batch_walks[r]->run_to(target);
      ref_walks[r]->run_to(target);
      ASSERT_EQ(batch_walks[r]->current_energy(),
                ref_walks[r]->current_energy())
          << "replica " << r << " segment " << segment;
    }
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    SCOPED_TRACE("replica " + std::to_string(r));
    expect_same_result(batch_walks[r]->take_result(),
                       ref_walks[r]->take_result());
  }
}

TEST(QuboReplicaBatch, DenseWalksMatchPerReplicaEvaluators) {
  util::Rng rng(21);
  run_batched_vs_reference(random_matrix(48, 0.7, rng),
                           qubo::Kernel::kDense);
}

TEST(QuboReplicaBatch, SparseWalksMatchPerReplicaEvaluators) {
  util::Rng rng(22);
  run_batched_vs_reference(random_matrix(64, 0.12, rng),
                           qubo::Kernel::kSparse);
}

TEST(QuboReplicaBatch, AutoKernelResolvesLikeTheEvaluator) {
  util::Rng rng(23);
  const QuboMatrix sparse_q = random_matrix(32, 0.1, rng);
  const QuboMatrix dense_q = random_matrix(32, 0.9, rng);
  EXPECT_EQ(QuboReplicaBatch(sparse_q.freeze(), 2).kernel(), qubo::Kernel::kSparse);
  EXPECT_EQ(QuboReplicaBatch(dense_q.freeze(), 2).kernel(), qubo::Kernel::kDense);
}

TEST(QuboReplicaBatch, RejectsBadArguments) {
  util::Rng rng(24);
  const QuboMatrix q = random_matrix(8, 0.5, rng);
  EXPECT_THROW(QuboReplicaBatch(q.freeze(), 0), std::invalid_argument);
  QuboReplicaBatch batch(q.freeze(), 2);
  EXPECT_THROW(batch.problem(0).reset(qubo::BitVector(7, 0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace hycim::anneal
