#include "qubo/energy.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace hycim::qubo {

IncrementalEvaluator::IncrementalEvaluator(FrozenQuboPtr q, BitVector x0)
    : IncrementalEvaluator(q, std::move(x0), q->kernel()) {}

IncrementalEvaluator::IncrementalEvaluator(FrozenQuboPtr q, BitVector x0,
                                           Kernel kernel)
    : q_(std::move(q)), kernel_(kernel) {
  if (kernel_ == Kernel::kSparse) {
    index_ = &q_->neighbor_index();
  } else {
    rows_ = &q_->dense_rows();
  }
  reset(std::move(x0));
}

void IncrementalEvaluator::flip(std::size_t k) {
  assert(k < x_.size());
  energy_ += delta(k);
  const double sign = x_[k] ? -1.0 : 1.0;  // +1 when turning the bit on
  x_[k] ^= 1;
  // Every other bit's field gains/loses the coupling with bit k.  The
  // sparse walk skips exact-zero couplings only (adding ±0.0 is the lone
  // dropped operation) and the dense pass streams the mirror row (phi_k
  // saved/restored inside), so all kernels move phi identically.
  if (kernel_ == Kernel::kSparse) {
    kernels::sparse_flip(phi_.data(), *index_, k, sign);
    return;
  }
  const std::size_t n = x_.size();
  rows_->visit([&](const auto* mirror) {
    kernels::dense_flip(phi_.data(), mirror + k * n, n, k, sign);
  });
}

void IncrementalEvaluator::flip_pair(std::size_t i, std::size_t j) {
  assert(i != j);
  flip(i);
  flip(j);
}

void IncrementalEvaluator::reset(BitVector x0) {
  if (x0.size() != q_->size()) {
    throw std::invalid_argument("IncrementalEvaluator: size mismatch");
  }
  x_ = std::move(x0);
  words_.assign(x_);
  phi_.resize(x_.size());
  energy_ = kernels::rebuild(*q_, kernel_, words_, phi_.data());
}

double IncrementalEvaluator::recompute() const { return q_->energy(x_); }

}  // namespace hycim::qubo
