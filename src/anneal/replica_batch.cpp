#include "anneal/replica_batch.hpp"

#include <stdexcept>
#include <utility>

namespace hycim::anneal {

QuboReplicaBatch::QuboReplicaBatch(qubo::FrozenQuboPtr q,
                                   std::size_t replicas, qubo::Kernel kernel)
    : q_(std::move(q)),
      kernel_(qubo::resolve_kernel(
          kernel, kernel == qubo::Kernel::kAuto ? q_->density() : 0.0)),
      n_(q_->size()),
      phi_(replicas * n_, 0.0),
      energy_(replicas, 0.0),
      x_(replicas, qubo::BitVector(n_, 0)),
      words_(replicas, qubo::WordState(n_)) {
  if (replicas == 0) {
    throw std::invalid_argument("QuboReplicaBatch: zero replicas");
  }
  if (kernel_ == qubo::Kernel::kSparse) {
    index_ = &q_->neighbor_index();
  } else {
    rows_ = &q_->dense_rows();
  }
  views_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) views_.emplace_back(this, r);
}

std::vector<SaProblem*> QuboReplicaBatch::problems() {
  std::vector<SaProblem*> ptrs;
  ptrs.reserve(views_.size());
  for (auto& v : views_) ptrs.push_back(&v);
  return ptrs;
}

double QuboReplicaBatch::reset(std::size_t r, const qubo::BitVector& x) {
  if (x.size() != n_) {
    throw std::invalid_argument("QuboReplicaBatch::reset: size mismatch");
  }
  x_[r].assign(x.begin(), x.end());
  words_[r].assign(x_[r]);
  energy_[r] = qubo::kernels::rebuild(*q_, kernel_, words_[r], phi(r));
  return energy_[r];
}

double QuboReplicaBatch::delta(std::size_t r, std::size_t k) const {
  return (x_[r][k] ? -1.0 : 1.0) * phi_[r * n_ + k];
}

double QuboReplicaBatch::trial_delta(std::size_t r, const Move& m) const {
  if (!m.is_swap()) return delta(r, m.bits[0]);
  const std::size_t i = m.bits[0];
  const std::size_t j = m.bits[1];
  const double si = x_[r][i] ? -1.0 : 1.0;
  const double sj = x_[r][j] ? -1.0 : 1.0;
  const double q_ij = rows_ ? rows_->row(i)[j] : q_->matrix().at(i, j);
  return delta(r, i) + delta(r, j) + si * sj * q_ij;
}

void QuboReplicaBatch::flip(std::size_t r, std::size_t k) {
  energy_[r] += delta(r, k);
  const double sign = x_[r][k] ? -1.0 : 1.0;
  x_[r][k] ^= 1;
  words_[r].flip(k);
  if (kernel_ == qubo::Kernel::kSparse) {
    qubo::kernels::sparse_flip(phi(r), *index_, k, sign);
    return;
  }
  qubo::kernels::dense_flip(phi(r), rows_->row(k), n_, k, sign);
}

void QuboReplicaBatch::commit(std::size_t r, const Move& m) {
  flip(r, m.bits[0]);
  if (m.is_swap()) flip(r, m.bits[1]);
}

}  // namespace hycim::anneal
