// Structure-of-arrays replica state for pure-QUBO tempering.
//
// Replica exchange used to give every replica its own chip clone — its own
// copy of the evaluation matrix, its own IncrementalEvaluator, its own
// heap-scattered fields.  For R replicas of an n-variable dense problem
// that is R separate n²-sized working sets marching through cache
// independently, even though every replica walks the *same* matrix.
//
// QuboReplicaBatch keeps the replica ensemble as structure-of-arrays over
// one shared frozen matrix: one contiguous R×n local-field block, one
// word-packed state block, one energy array — so the R replicas' trials at
// a tempering rung all stream the same DenseRows mirror (one working set,
// R cheap per-replica slices).  This is the CPU shape of the batched
// state-update pass the CiM annealer literature runs in hardware (see
// PAPERS.md: the simulated-bifurcation and co-design annealers batch many
// parallel updates through one pass over the coupling matrix).
//
// Each replica is exposed as an anneal::SaProblem view, so the existing
// SaWalk / Island / Executor machinery — and therefore the
// determinism contract and the fig10 fingerprint — run unchanged: a
// Replica view performs bit-for-bit the float operations of an
// IncrementalEvaluator-backed problem (same kernels, see qubo/energy.hpp),
// it just keeps its state in the batch's arenas.  Views for different
// replicas touch disjoint slices, so replica segments may run on different
// executor threads, exactly like the chip clones they replace.
#pragma once

#include <cstddef>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "qubo/dense_rows.hpp"
#include "qubo/energy.hpp"
#include "qubo/neighbor_index.hpp"
#include "qubo/qubo_matrix.hpp"
#include "qubo/word_state.hpp"

namespace hycim::anneal {

/// R pure-QUBO replicas over one shared matrix, stored SoA.
class QuboReplicaBatch {
 public:
  /// Binds `replicas` replica slots to the shared matrix `q`.  `kernel`
  /// resolves like IncrementalEvaluator's: kAuto measures q->density();
  /// the resolved kernel is shared by every replica, as is the structure
  /// it walks (q's DenseRows mirror or NeighborIndex).
  QuboReplicaBatch(qubo::FrozenQuboPtr q, std::size_t replicas,
                   qubo::Kernel kernel = qubo::Kernel::kAuto);

  /// Number of replica slots.
  std::size_t replicas() const { return views_.size(); }

  /// Number of binary variables.
  std::size_t num_bits() const { return n_; }

  /// The resolved per-flip kernel (kDense or kSparse).
  qubo::Kernel kernel() const { return kernel_; }

  /// Replica r as an SaProblem (stable reference for the batch lifetime).
  SaProblem& problem(std::size_t r) { return views_[r]; }

  /// All replica views, in replica order — the pointer list the search
  /// strategies consume.
  std::vector<SaProblem*> problems();

 private:
  /// The per-replica SaProblem view over the batch arenas.
  class Replica final : public SaProblem {
   public:
    Replica(QuboReplicaBatch* batch, std::size_t r) : batch_(batch), r_(r) {}

    std::size_t num_bits() const override { return batch_->n_; }
    double reset(const qubo::BitVector& x) override {
      return batch_->reset(r_, x);
    }
    double trial_delta(const Move& m) override {
      return batch_->trial_delta(r_, m);
    }
    void commit(const Move& m) override { batch_->commit(r_, m); }
    const qubo::BitVector& state() const override { return batch_->x_[r_]; }
    bool supports_swaps() const override { return true; }

   private:
    QuboReplicaBatch* batch_;
    std::size_t r_;
  };

  double* phi(std::size_t r) { return phi_.data() + r * n_; }
  double delta(std::size_t r, std::size_t k) const;
  double reset(std::size_t r, const qubo::BitVector& x);
  double trial_delta(std::size_t r, const Move& m) const;
  void commit(std::size_t r, const Move& m);
  void flip(std::size_t r, std::size_t k);

  qubo::FrozenQuboPtr q_;
  qubo::Kernel kernel_;
  std::size_t n_;
  /// The structure the kernel walks, owned by *q_ (the other one is null).
  const qubo::DenseRows* rows_ = nullptr;
  const qubo::NeighborIndex* index_ = nullptr;
  // SoA arenas: replica r owns phi_[r·n, (r+1)·n), x_[r], words_[r],
  // energy_[r] — disjoint slices, safe to advance on separate threads.
  std::vector<double> phi_;
  std::vector<double> energy_;
  std::vector<qubo::BitVector> x_;
  std::vector<qubo::WordState> words_;
  std::vector<Replica> views_;
};

}  // namespace hycim::anneal
