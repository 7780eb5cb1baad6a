#include "core/dqubo_binary.hpp"

#include <stdexcept>

namespace hycim::core {

std::vector<long long> binary_slack_coefficients(long long capacity) {
  if (capacity < 1) {
    throw std::invalid_argument("binary_slack_coefficients: capacity < 1");
  }
  std::vector<long long> coeffs;
  long long covered = 0;  // Σ coefficients so far; [0, covered] representable
  while (covered < capacity) {
    long long next = covered + 1;  // largest addition keeping range gapless
    if (covered + next > capacity) next = capacity - covered;
    coeffs.push_back(next);
    covered += next;
  }
  return coeffs;
}

qubo::BitVector DquboBinaryForm::decode_items(
    std::span<const std::uint8_t> xz) const {
  return qubo::BitVector(xz.begin(), xz.begin() + static_cast<long>(n_items));
}

long long DquboBinaryForm::slack_value(
    std::span<const std::uint8_t> xz) const {
  long long s = 0;
  for (std::size_t j = 0; j < slack_coeffs.size(); ++j) {
    if (xz[n_items + j]) s += slack_coeffs[j];
  }
  return s;
}

DquboBinaryForm to_dqubo_binary(const cop::QkpInstance& inst, double beta) {
  inst.validate();
  DquboBinaryForm form;
  form.n_items = inst.n;
  form.capacity = inst.capacity;
  form.beta = beta;
  form.slack_coeffs = binary_slack_coefficients(inst.capacity);
  const std::size_t n = inst.n;
  const std::size_t k = form.slack_coeffs.size();
  form.q = qubo::QuboMatrix(n + k);
  auto& q = form.q;

  // Objective block.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) q.add(i, j, -static_cast<double>(p));
    }
  }

  // Penalty β(W + S − C)² with W = Σ w_i x_i, S = Σ c_j z_j:
  //   β(W² + S² + C² + 2WS − 2CW − 2CS)
  const auto cap = static_cast<double>(inst.capacity);
  q.add_offset(beta * cap * cap);
  for (std::size_t i = 0; i < n; ++i) {
    const auto wi = static_cast<double>(inst.weights[i]);
    q.add(i, i, beta * (wi * wi - 2.0 * cap * wi));
    for (std::size_t j = i + 1; j < n; ++j) {
      q.add(i, j, 2.0 * beta * wi * static_cast<double>(inst.weights[j]));
    }
  }
  for (std::size_t a = 0; a < k; ++a) {
    const auto ca = static_cast<double>(form.slack_coeffs[a]);
    q.add(n + a, n + a, beta * (ca * ca - 2.0 * cap * ca));
    for (std::size_t b = a + 1; b < k; ++b) {
      q.add(n + a, n + b,
            2.0 * beta * ca * static_cast<double>(form.slack_coeffs[b]));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto wi = static_cast<double>(inst.weights[i]);
    for (std::size_t a = 0; a < k; ++a) {
      q.add(i, n + a,
            2.0 * beta * wi * static_cast<double>(form.slack_coeffs[a]));
    }
  }
  return form;
}

}  // namespace hycim::core
