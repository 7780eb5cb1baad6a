#include "core/constrained_form.hpp"

namespace hycim::core {

long long constraint_total(const cim::LinearConstraint& c,
                           std::span<const std::uint8_t> x) {
  long long total = 0;
  for (std::size_t i = 0; i < c.weights.size(); ++i) {
    if (x[i]) total += c.weights[i];
  }
  return total;
}

bool ConstrainedQuboForm::feasible(std::span<const std::uint8_t> x) const {
  for (std::size_t r = 0; r < rows(); ++r) {
    const cim::LinearConstraint& c = row(r);
    if (!cim::holds(relation(r), constraint_total(c, x), c.capacity)) {
      return false;
    }
  }
  return true;
}

double ConstrainedQuboForm::energy(std::span<const std::uint8_t> x) const {
  return feasible(x) ? q.energy(x) : 0.0;
}

}  // namespace hycim::core
