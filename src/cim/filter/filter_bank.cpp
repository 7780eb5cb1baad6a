#include "cim/filter/filter_bank.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cim/filter/weight_decompose.hpp"
#include "util/rng.hpp"

namespace hycim::cim {

FilterBank::FilterBank(const InequalityFilterParams& params,
                       const std::vector<LinearConstraint>& inequalities,
                       const std::vector<LinearConstraint>& equalities,
                       std::size_t variables)
    : variables_(variables), inequalities_(inequalities.size()) {
  const std::size_t rows = inequalities.size() + equalities.size();
  if (rows == 0) {
    throw std::invalid_argument("FilterBank: no constraints");
  }
  const long long column_max = max_representable_weight(
      params.array.rows, params.array.fefet.num_levels - 1);
  filters_.reserve(rows);
  supports_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool equality = r >= inequalities_;
    const auto& c =
        equality ? equalities[r - inequalities_] : inequalities[r];
    if (c.weights.size() != variables) {
      throw std::invalid_argument("FilterBank: row " + std::to_string(r) +
                                  " width mismatch");
    }
    // The support: only the wired (nonzero-weight) variables get a column.
    // An all-zero constraint yields a zero-column filter whose matchline
    // never discharges — trivially feasible, never trialed.
    std::vector<std::uint32_t> support;
    std::vector<long long> weights;
    for (std::size_t k = 0; k < variables; ++k) {
      if (c.weights[k] == 0) continue;
      support.push_back(static_cast<std::uint32_t>(k));
      weights.push_back(c.weights[k]);
    }
    // Representable capacities pass through untouched (noise margins
    // unchanged); only a ≤ capacity beyond the support-sized replica's
    // range — necessarily a vacuous constraint, since per-column weights
    // are bounded by column_max — clamps to the deepest representable
    // margin.  Negative capacities pass through to the filter's own
    // validation.
    const long long replica_range =
        static_cast<long long>(support.size()) * column_max;
    const long long capacity = equality || c.capacity < 0
                                   ? c.capacity
                                   : std::min(c.capacity, replica_range);

    InequalityFilterParams p = params;
    // Independent fabrication per filter.
    p.fab_seed = params.fab_seed + (equality ? 1000 + r - inequalities_ : r);
    if (params.decision_seed != 0) {
      // Hash-derived so no two filters (or their window comparators, which
      // stride +1/+2 off the base) ever share a noise stream.
      p.decision_seed = util::fork_seed(params.decision_seed, stream_id(r));
    }
    filters_.emplace_back(p, weights, capacity,
                          equality ? Relation::kEqual : Relation::kAtMost);
    supports_.push_back(std::move(support));
  }
  incidence_ = VariableIncidence(supports_, variables);
}

FilterBank::FilterBank(const FilterBank& proto, std::uint64_t decision_seed)
    : variables_(proto.variables_),
      inequalities_(proto.inequalities_),
      supports_(proto.supports_),
      incidence_(proto.incidence_) {
  filters_.reserve(proto.filters_.size());
  for (std::size_t r = 0; r < proto.filters_.size(); ++r) {
    filters_.emplace_back(proto.filters_[r],
                          decision_seed != 0
                              ? util::fork_seed(decision_seed, stream_id(r))
                              : 0);
  }
}

std::uint64_t FilterBank::stream_id(std::size_t r) const {
  return r < inequalities_ ? r : 0x80000000ULL + (r - inequalities_);
}

std::span<const std::uint8_t> FilterBank::gather(
    std::size_t i, std::span<const std::uint8_t> x) const {
  if (x.size() != variables_) {
    throw std::invalid_argument("FilterBank: input size mismatch");
  }
  const auto& support = supports_[i];
  gather_.resize(support.size());
  for (std::size_t s = 0; s < support.size(); ++s) gather_[s] = x[support[s]];
  return gather_;
}

bool FilterBank::is_feasible(std::span<const std::uint8_t> x) {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (!filters_[i].is_feasible(gather(i, x))) {
      return false;  // short-circuit like the AND gate
    }
  }
  return true;
}

void FilterBank::bind(std::span<const std::uint8_t> x) {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    filters_[i].bind(gather(i, x));
  }
}

bool FilterBank::bound() const {
  return !filters_.empty() && filters_.front().bound();
}

bool FilterBank::trial_feasible(std::span<const std::size_t> flips) {
  for (const auto& touched : incidence_.group(flips)) {
    if (!filters_[touched.filter].trial_feasible(touched.locals)) {
      return false;  // short-circuit AND over the measured filters
    }
  }
  return true;
}

void FilterBank::apply(std::span<const std::size_t> flips) {
  for (const auto& touched : incidence_.group(flips)) {
    filters_[touched.filter].apply(touched.locals);
  }
}

double FilterBank::trial_ml(std::size_t i,
                            std::span<const std::size_t> flips) const {
  for (const auto& touched : incidence_.group(flips)) {
    if (touched.filter == i) return filters_[i].trial_ml(touched.locals);
  }
  return filters_.at(i).bound_ml();  // untouched: the matchline is unchanged
}

double FilterBank::bound_ml(std::size_t i) const {
  return filters_.at(i).bound_ml();
}

double FilterBank::ml_voltage(std::size_t i,
                              std::span<const std::uint8_t> x) const {
  return filters_.at(i).ml_voltage(gather(i, x));
}

std::vector<bool> FilterBank::verdicts(std::span<const std::uint8_t> x) {
  std::vector<bool> out;
  out.reserve(filters_.size());
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    out.push_back(filters_[i].is_feasible(gather(i, x)));
  }
  return out;
}

bool FilterBank::exact_feasible(std::span<const std::uint8_t> x) const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (!filters_[i].exact_feasible(gather(i, x))) return false;
  }
  return true;
}

bool FilterBank::touches(std::size_t i, std::size_t var) const {
  const auto& support = supports_.at(i);
  return std::binary_search(support.begin(), support.end(),
                            static_cast<std::uint32_t>(var));
}

std::size_t FilterBank::total_evaluations() const {
  std::size_t total = 0;
  for (const auto& f : filters_) total += f.stats().evaluations;
  return total;
}

void FilterBank::reprogram() {
  for (auto& f : filters_) f.reprogram();
}

}  // namespace hycim::cim
