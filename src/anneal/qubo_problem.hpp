// A pure-QUBO walk: the SaProblem over one qubo::IncrementalEvaluator.
//
// Nothing is filtered (trial_feasible keeps the accept-all default), and
// both move arities run on the evaluator's O(1) reads and per-flip
// kernels.  Any number of QuboProblems may share one frozen matrix — each
// keeps only its own fields and state — which is how HyCimSolver runs the
// replicas of a form with no constraint rows.
#pragma once

#include "anneal/sa_engine.hpp"
#include "qubo/energy.hpp"

namespace hycim::anneal {

class QuboProblem final : public SaProblem {
 public:
  /// Binds an evaluator over `q` at the all-zeros state (walks reset it to
  /// their x0).  It runs q's kernel (FrozenQubo::kernel()).
  explicit QuboProblem(const qubo::FrozenQuboPtr& q)
      : eval_(q, qubo::BitVector(q->size(), 0)) {}

  /// Runs `kernel` instead: IncrementalEvaluator's test and
  /// micro-benchmark seam, for whole walks.
  QuboProblem(const qubo::FrozenQuboPtr& q, qubo::Kernel kernel)
      : eval_(q, qubo::BitVector(q->size(), 0), kernel) {}

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

}  // namespace hycim::anneal
