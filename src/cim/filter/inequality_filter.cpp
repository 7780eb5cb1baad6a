#include "cim/filter/inequality_filter.hpp"

#include <stdexcept>
#include <string>

namespace hycim::cim {

namespace {

/// Splits the capacity across the replica's columns (greedy fill, one
/// column's maximum at a time) so that Σ w'_i x'_i = C with x' = all-ones.
std::vector<long long> replica_weights(long long capacity, std::size_t columns,
                                       long long column_max) {
  if (capacity < 0) {
    throw std::invalid_argument("InequalityFilter: negative capacity");
  }
  if (capacity > static_cast<long long>(columns) * column_max) {
    throw std::invalid_argument(
        "InequalityFilter: capacity " + std::to_string(capacity) +
        " exceeds replica range " +
        std::to_string(static_cast<long long>(columns) * column_max));
  }
  std::vector<long long> w(columns, 0);
  long long remaining = capacity;
  for (std::size_t i = 0; i < columns && remaining > 0; ++i) {
    w[i] = std::min(remaining, column_max);
    remaining -= w[i];
  }
  return w;
}

}  // namespace

InequalityFilter::InequalityFilter(const InequalityFilterParams& params,
                                   const std::vector<long long>& weights,
                                   long long capacity, Relation relation)
    : weights_(weights),
      capacity_(capacity),
      relation_(relation),
      reprogram_rng_(params.fab_seed ^ (relation == Relation::kEqual
                                            ? 0x0f0f1e1e2d2d3c3cULL
                                            : 0xabcdef0123456789ULL)) {
  if (relation == Relation::kEqual &&
      (params.margin_units <= 0.0 || params.margin_units >= 1.0)) {
    throw std::invalid_argument(
        "InequalityFilter: an equality's margin_units must be in (0, 1)");
  }
  device::VariationModel fab(params.variation, params.fab_seed);
  const long long column_max =
      max_representable_weight(params.array.rows,
                               params.array.fefet.num_levels - 1);
  for (long long w : weights_) {
    if (w > column_max) {
      throw std::invalid_argument("InequalityFilter: item weight " +
                                  std::to_string(w) + " exceeds column max " +
                                  std::to_string(column_max));
    }
  }
  working_ = std::make_unique<FilterArray>(params.array, weights_, fab);
  replica_ = std::make_unique<FilterArray>(
      params.array, replica_weights(capacity, weights_.size(), column_max),
      fab);
  decision_stream_seed_ = params.decision_seed != 0
                              ? params.decision_seed
                              : params.fab_seed * 0x9e3779b9ULL;
  if (relation == Relation::kEqual) {
    upper_ = std::make_unique<Comparator>(params.comparator, fab.rng(),
                                          decision_stream_seed_ + 1);
  }
  comparator_ = std::make_unique<Comparator>(
      params.comparator, fab.rng(),
      decision_stream_seed_ + (upper_ ? 2 : 0));
  margin_units_ = params.margin_units;
  refresh_thresholds();
}

InequalityFilter::InequalityFilter(const InequalityFilter& proto,
                                   std::uint64_t decision_seed)
    : weights_(proto.weights_),
      capacity_(proto.capacity_),
      relation_(proto.relation_),
      working_(std::make_unique<FilterArray>(*proto.working_)),
      replica_(std::make_unique<FilterArray>(*proto.replica_)),
      reprogram_rng_(proto.reprogram_rng_),
      replica_ml_(proto.replica_ml_),
      margin_v_(proto.margin_v_),
      margin_units_(proto.margin_units_),
      decision_stream_seed_(decision_seed != 0 ? decision_seed
                                               : proto.decision_stream_seed_) {
  if (proto.upper_) {
    upper_ = std::make_unique<Comparator>(*proto.upper_,
                                          decision_stream_seed_ + 1);
  }
  comparator_ = std::make_unique<Comparator>(
      *proto.comparator_, decision_stream_seed_ + (upper_ ? 2 : 0));
}

InequalityFilter::~InequalityFilter() = default;
InequalityFilter::InequalityFilter(InequalityFilter&&) noexcept = default;
InequalityFilter& InequalityFilter::operator=(InequalityFilter&&) noexcept =
    default;

bool InequalityFilter::is_feasible(std::span<const std::uint8_t> x) {
  return decide(working_->evaluate(x));
}

void InequalityFilter::refresh_thresholds() {
  replica_ml_ =
      replica_->evaluate(std::vector<std::uint8_t>(replica_->columns(), 1));
  margin_v_ = margin_units_ * replica_ml_ *
              working_->nominal_unit_drop_fraction();
}

bool InequalityFilter::decide(double ml) {
  // The design margin skews the decision threshold by half a weight unit so
  // the <= boundary (ML == ReplicaML) resolves to "feasible" robustly.  An
  // equality's window adds the mirrored upper check; both comparators
  // decide on every evaluation.
  const bool not_below = comparator_->compare(ml + margin_v_, replica_ml_);
  const bool not_above =
      !upper_ || upper_->compare(replica_ml_ + margin_v_, ml);
  const bool feasible = not_below && not_above;
  ++stats_.evaluations;
  if (feasible) {
    ++stats_.feasible;
  } else {
    ++stats_.infeasible;
  }
  return feasible;
}

void InequalityFilter::bind(std::span<const std::uint8_t> x) {
  working_->bind(x);
}

bool InequalityFilter::bound() const { return working_->bound(); }

bool InequalityFilter::trial_feasible(std::span<const std::size_t> flips) {
  return decide(working_->trial(flips));
}

void InequalityFilter::apply(std::span<const std::size_t> flips) {
  working_->apply(flips);
}

double InequalityFilter::trial_ml(std::span<const std::size_t> flips) const {
  return working_->trial(flips);
}

double InequalityFilter::bound_ml() const { return working_->bound_voltage(); }

double InequalityFilter::ml_voltage(std::span<const std::uint8_t> x) const {
  return working_->evaluate(x);
}

double InequalityFilter::normalized_ml(std::span<const std::uint8_t> x) const {
  return working_->evaluate(x) / replica_ml_;
}

bool InequalityFilter::exact_feasible(std::span<const std::uint8_t> x) const {
  long long total = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (x[i]) total += weights_[i];
  }
  return holds(relation_, total, capacity_);
}

void InequalityFilter::reprogram() {
  working_->reprogram(reprogram_rng_);
  replica_->reprogram(reprogram_rng_);
  refresh_thresholds();
}

void InequalityFilter::age(double seconds) {
  working_->age(seconds);
  replica_->age(seconds);
  refresh_thresholds();
}

}  // namespace hycim::cim
