#include "core/inequality_qubo.hpp"

#include <cmath>

namespace hycim::core {

bool InequalityQuboForm::feasible(std::span<const std::uint8_t> x) const {
  long long total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x[i]) total += weights[i];
  }
  return total <= capacity;
}

double InequalityQuboForm::energy(std::span<const std::uint8_t> x) const {
  return feasible(x) ? q.energy(x) : 0.0;
}

InequalityQuboForm to_inequality_qubo(const cop::QkpInstance& inst) {
  inst.validate();
  InequalityQuboForm form;
  form.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) form.q.set(i, j, -static_cast<double>(p));
    }
  }
  form.weights = inst.weights;
  form.capacity = inst.capacity;
  return form;
}

long long profit_from_energy(double qubo_energy) {
  return static_cast<long long>(std::llround(-qubo_energy));
}

}  // namespace hycim::core
