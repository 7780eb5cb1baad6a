#include "cim/filter/filter_array.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hycim::cim {

FilterArray::FilterArray(const FilterArrayParams& params,
                         const std::vector<long long>& weights,
                         device::VariationModel& fab)
    : params_(params), columns_(weights.size()) {
  const int k_max = params_.fefet.num_levels - 1;
  const auto levels =
      decompose_weights(weights, params_.rows, k_max, params_.decompose);

  device::CellParams cell_params;
  cell_params.r_series = params_.r_series;
  cell_params.v_dd = params_.v_dd;

  auto fabric = std::make_shared<Fabric>();
  auto devices = fab.fabricate(params_.fefet, params_.rows * columns_);
  fabric->cells.reserve(devices.size());
  for (std::size_t row = 0; row < params_.rows; ++row) {
    for (std::size_t col = 0; col < columns_; ++col) {
      const std::size_t flat = row * columns_ + col;
      fabric->cells.emplace_back(std::move(devices[flat]), cell_params,
                                 fab.resistor_factor());
      fabric->cells.back().program(levels[col][row], fab.rng());
    }
  }
  // Ascending staircase: phase 0 applies Vread_(L-1) (lowest amplitude,
  // only the highest level conducts), the last phase applies Vread_1.
  for (int j = params_.fefet.num_levels - 1; j >= 1; --j) {
    fabric->read_voltages.push_back(
        device::FeFet::read_voltage(params_.fefet, j));
  }
  refabricate(std::move(fabric));
}

void FilterArray::Fabric::measure(std::size_t rows, std::size_t columns) {
  const std::size_t phases = read_voltages.size();
  loads.assign(columns * phases, {});
  isat_idle_total = 0.0;
  for (std::size_t col = 0; col < columns; ++col) {
    PhaseLoad* load = loads.data() + col * phases;
    // Summed over the column's cells in row order; isink holds the OFF
    // sink current until the idle sink is netted out below.
    double isat_idle = 0.0;
    for (std::size_t row = 0; row < rows; ++row) {
      const auto& cell = cells[row * columns + col];
      for (std::size_t p = 0; p < phases; ++p) {
        const double vg = read_voltages[p];
        load[p].g += cell.conductance(vg);
        load[p].isink += cell.sat_current(vg);
      }
      isat_idle += cell.sat_current(0.0);
    }
    for (std::size_t p = 0; p < phases; ++p) load[p].isink -= isat_idle;
    isat_idle_total += isat_idle;
  }
}

void FilterArray::refabricate(std::shared_ptr<Fabric> fabric) {
  fabric->measure(params_.rows, columns_);
  fabric_ = std::move(fabric);
  // Device state changed (program / age): re-aggregate any bound state so
  // the cached loads reflect the fresh per-column loads.
  if (bound_) rebuild_bound();
}

void FilterArray::bind(std::span<const std::uint8_t> x) {
  if (x.size() != columns_) {
    throw std::invalid_argument("FilterArray::bind: input size mismatch");
  }
  bound_x_.assign(x.begin(), x.end());
  bound_ = true;
  rebuild_bound();
}

void FilterArray::rebuild_bound() {
  const std::size_t phases = this->phases();
  bound_g_.assign(phases, 0.0);
  bound_isink_.assign(phases, fabric_->isat_idle_total);
  // Same accumulation order as run(): per phase, selected columns in
  // ascending order — bound_voltage() is bit-identical to evaluate().
  for (std::size_t col = 0; col < columns_; ++col) {
    if (!bound_x_[col]) continue;
    const PhaseLoad* load = column_loads(col);
    for (std::size_t p = 0; p < phases; ++p) {
      bound_g_[p] += load[p].g;
      bound_isink_[p] += load[p].isink;
    }
  }
  commits_since_rebind_ = 0;
}

const std::vector<std::uint8_t>& FilterArray::bound_input() const {
  if (!bound_) throw std::logic_error("FilterArray: no bound input");
  return bound_x_;
}

double FilterArray::bound_voltage() const {
  if (!bound_) throw std::logic_error("FilterArray: not bound");
  return settle(bound_g_, bound_isink_);
}

double FilterArray::trial(std::span<const std::size_t> flips) const {
  if (!bound_) throw std::logic_error("FilterArray::trial: not bound");
  const std::size_t phases = this->phases();
  trial_g_.assign(bound_g_.begin(), bound_g_.end());
  trial_isink_.assign(bound_isink_.begin(), bound_isink_.end());
  for (const std::size_t col : flips) {
    if (col >= columns_) {
      throw std::invalid_argument("FilterArray::trial: column out of range");
    }
    const double sign = bound_x_[col] ? -1.0 : 1.0;
    const PhaseLoad* load = column_loads(col);
    for (std::size_t p = 0; p < phases; ++p) {
      trial_g_[p] += sign * load[p].g;
      trial_isink_[p] += sign * load[p].isink;
    }
  }
  return settle(trial_g_, trial_isink_);
}

void FilterArray::apply(std::span<const std::size_t> flips) {
  if (!bound_) throw std::logic_error("FilterArray::apply: not bound");
  const std::size_t phases = this->phases();
  for (const std::size_t col : flips) {
    if (col >= columns_) {
      throw std::invalid_argument("FilterArray::apply: column out of range");
    }
    const double sign = bound_x_[col] ? -1.0 : 1.0;
    const PhaseLoad* load = column_loads(col);
    for (std::size_t p = 0; p < phases; ++p) {
      bound_g_[p] += sign * load[p].g;
      bound_isink_[p] += sign * load[p].isink;
    }
    bound_x_[col] ^= 1;
  }
  if (++commits_since_rebind_ >= kRebindInterval) rebuild_bound();
}

double FilterArray::settle(std::span<const double> g,
                           std::span<const double> i_sink) const {
  double v_ml = params_.v_dd;  // precharged
  for (std::size_t p = 0; p < g.size(); ++p) {
    if (g[p] > 1e-18) {
      const double v_inf = -i_sink[p] / g[p];
      v_ml = (v_ml - v_inf) * std::exp(-g[p] * params_.t_phase / params_.c_ml)
             + v_inf;
    } else {
      v_ml -= i_sink[p] * params_.t_phase / params_.c_ml;
    }
    v_ml = std::max(0.0, v_ml);
  }
  return v_ml;
}

double FilterArray::evaluate(std::span<const std::uint8_t> x) const {
  return run(x, nullptr, 1);
}

double FilterArray::evaluate_waveform(std::span<const std::uint8_t> x,
                                      std::vector<MlSample>& waveform,
                                      int samples_per_phase) const {
  waveform.clear();
  return run(x, &waveform, samples_per_phase);
}

double FilterArray::run(std::span<const std::uint8_t> x,
                        std::vector<MlSample>* waveform,
                        int samples_per_phase) const {
  if (x.size() != columns_) {
    throw std::invalid_argument("FilterArray::evaluate: input size mismatch");
  }
  if (samples_per_phase < 1) samples_per_phase = 1;

  // Aggregate each phase's linear conductance and current-sink loads, then
  // settle the transient — the same closed form the bound-state trial path
  // evaluates, so the two paths cannot diverge.
  const std::size_t phases = this->phases();
  trial_g_.assign(phases, 0.0);
  // Unselected leak at VG = 0.
  trial_isink_.assign(phases, fabric_->isat_idle_total);
  for (std::size_t col = 0; col < columns_; ++col) {
    if (!x[col]) continue;
    const PhaseLoad* load = column_loads(col);
    for (std::size_t p = 0; p < phases; ++p) {
      trial_g_[p] += load[p].g;
      trial_isink_[p] += load[p].isink;
    }
  }
  if (!waveform) return settle(trial_g_, trial_isink_);

  double v_ml = params_.v_dd;  // precharged
  double t = 0.0;
  waveform->push_back({t, v_ml});
  for (std::size_t p = 0; p < phases; ++p) {
    const double g = trial_g_[p];
    const double i_sink = trial_isink_[p];
    // Exact solution of C·dv/dt = −(g·v + i_sink) over the phase.
    auto v_at = [&](double dt_local) {
      if (g > 1e-18) {
        const double v_inf = -i_sink / g;
        return (v_ml - v_inf) * std::exp(-g * dt_local / params_.c_ml) + v_inf;
      }
      return v_ml - i_sink * dt_local / params_.c_ml;
    };
    for (int s = 1; s <= samples_per_phase; ++s) {
      const double dt_local =
          params_.t_phase * static_cast<double>(s) / samples_per_phase;
      waveform->push_back({t + dt_local, std::max(0.0, v_at(dt_local))});
    }
    v_ml = std::max(0.0, v_at(params_.t_phase));
    t += params_.t_phase;
  }
  return v_ml;
}

void FilterArray::reprogram(util::Rng& rng) {
  auto fabric = std::make_shared<Fabric>(*fabric_);
  for (auto& cell : fabric->cells) {
    cell.program(cell.level(), rng);
  }
  refabricate(std::move(fabric));
}

void FilterArray::age(double seconds) {
  auto fabric = std::make_shared<Fabric>(*fabric_);
  for (auto& cell : fabric->cells) cell.age(seconds);
  refabricate(std::move(fabric));
}

int FilterArray::cell_level(std::size_t row, std::size_t col) const {
  return fabric_->cells.at(row * columns_ + col).level();
}

long long FilterArray::column_weight(std::size_t col) const {
  long long sum = 0;
  for (std::size_t row = 0; row < params_.rows; ++row) {
    sum += cell_level(row, col);
  }
  return sum;
}

double FilterArray::nominal_unit_drop_fraction() const {
  // Nominal ON conductance of a cell at the minimum read overdrive.
  const double rch = params_.fefet.rch0;
  const double g_on = 1.0 / (params_.r_series + rch);
  return 1.0 - std::exp(-g_on * params_.t_phase / params_.c_ml);
}

}  // namespace hycim::cim
