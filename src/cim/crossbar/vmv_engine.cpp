#include "cim/crossbar/vmv_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hycim::cim {

namespace {

/// The engine's ADC: the configured corner, its LSB calibrated to the
/// crossbars' nominal cell current.
Adc calibrated_adc(const VmvEngineParams& params) {
  AdcParams adc = params.adc;
  adc.i_lsb = params.crossbar.nominal_cell_current();
  return Adc(adc, params.fab_seed * 0x2545F4914F6CDD1DULL);
}

}  // namespace

VmvEngine::VmvEngine(const qubo::FrozenQubo& q, int matrix_bits,
                     const VmvEngineParams& circuit)
    : params_(circuit),
      n_(q.size()),
      quantized_(
          std::make_shared<const QuantizedQubo>(quantize(q, matrix_bits))),
      adc_(calibrated_adc(params_)),
      reprogram_rng_(params_.fab_seed ^ 0x5bd1e995ULL) {
  // One positive and one negative crossbar per magnitude bit, drawn from
  // one fabrication stream in that order.
  device::VariationModel fab(params_.variation, params_.fab_seed);
  for (int b = 0; b < magnitude_bits(); ++b) {
    pos_planes_.emplace_back(params_.crossbar, n_, n_,
                             bit_plane(*quantized_, b, +1), fab);
    neg_planes_.emplace_back(params_.crossbar, n_, n_,
                             bit_plane(*quantized_, b, -1), fab);
  }
}

template <typename CurrentFn>
long long VmvEngine::convert_columns(std::span<const std::uint8_t> x,
                                     CurrentFn&& current_of) {
  // For every selected column j (x_j = 1), each bit plane's column current
  // is digitized; codes are shift-added across planes and summed over
  // columns, positive minus negative.  Both the full and the incremental
  // paths convert in this exact order, so the ADC noise stream (and the
  // clip counter) advance identically on either path.
  long long acc = 0;
  const int bits = magnitude_bits();
  for (std::size_t j = 0; j < n_; ++j) {
    if (!x[j]) continue;
    for (int b = 0; b < bits; ++b) {
      const auto p = static_cast<std::size_t>(b);
      const long long pos_code = adc_.convert(current_of(p, j));
      const long long neg_code =
          adc_.convert(current_of(static_cast<std::size_t>(bits) + p, j));
      acc += (pos_code - neg_code) << b;
    }
  }
  return acc;
}

double VmvEngine::energy(std::span<const std::uint8_t> x) {
  if (x.size() != n_) throw std::invalid_argument("VmvEngine::energy: size");
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  const long long acc =
      convert_columns(x, [&](std::size_t p, std::size_t j) {
        return p < bits ? pos_planes_[p].column_current(x, j)
                        : neg_planes_[p - bits].column_current(x, j);
      });
  return static_cast<double>(acc) * quantized_->scale + quantized_->offset;
}

void VmvEngine::bind(std::span<const std::uint8_t> x) {
  if (x.size() != n_) throw std::invalid_argument("VmvEngine::bind: size");
  bound_x_.assign(x.begin(), x.end());
  bound_ = true;
  trial_valid_ = false;
  rebuild_bound_currents();
  bound_acc_ = convert_columns(
      bound_x_,
      [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
}

void VmvEngine::rebuild_bound_currents() {
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  currents_.resize(2 * bits * n_);
  for (std::size_t p = 0; p < bits; ++p) {
    for (std::size_t j = 0; j < n_; ++j) {
      currents_[p * n_ + j] = pos_planes_[p].column_current(bound_x_, j);
      currents_[(bits + p) * n_ + j] =
          neg_planes_[p].column_current(bound_x_, j);
    }
  }
  commits_since_rebuild_ = 0;
}

double VmvEngine::bound_energy() const {
  if (!bound_) throw std::logic_error("VmvEngine::bound_energy: not bound");
  return static_cast<double>(bound_acc_) * quantized_->scale +
         quantized_->offset;
}

const std::vector<std::uint8_t>& VmvEngine::bound_input() const {
  if (!bound_) throw std::logic_error("VmvEngine::bound_input: not bound");
  return bound_x_;
}

double VmvEngine::trial(std::span<const std::size_t> flips) {
  if (!bound_) throw std::logic_error("VmvEngine::trial: not bound");
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  trial_x_.assign(bound_x_.begin(), bound_x_.end());
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine::trial: bit out of range");
    }
    trial_x_[k] ^= 1;
  }
  const long long acc =
      convert_columns(trial_x_, [&](std::size_t p, std::size_t j) {
        double current = currents_[p * n_ + j];
        const CrossbarArray& plane =
            p < bits ? pos_planes_[p] : neg_planes_[p - bits];
        for (const std::size_t k : flips) {
          const double sign = bound_x_[k] ? -1.0 : 1.0;
          current += sign * plane.row_toggle_delta(k, j);
        }
        return current;
      });
  trial_flips_.assign(flips.begin(), flips.end());
  trial_acc_ = acc;
  trial_valid_ = true;
  return static_cast<double>(acc) * quantized_->scale + quantized_->offset;
}

void VmvEngine::apply(std::span<const std::size_t> flips) {
  if (!bound_) throw std::logic_error("VmvEngine::apply: not bound");
  const auto bits = static_cast<std::size_t>(magnitude_bits());
  const bool adopt_trial =
      trial_valid_ && std::equal(flips.begin(), flips.end(),
                                 trial_flips_.begin(), trial_flips_.end());
  for (const std::size_t k : flips) {
    if (k >= n_) {
      throw std::invalid_argument("VmvEngine::apply: bit out of range");
    }
    const double sign = bound_x_[k] ? -1.0 : 1.0;
    // Contiguous fma passes over the flipped row's precomputed toggle
    // deltas (same doubles row_toggle_delta returns, so the tracked
    // currents move bit-identically to the strided per-cell walk).
    for (std::size_t p = 0; p < bits; ++p) {
      const double* pos_t = pos_planes_[p].toggle_row(k);
      const double* neg_t = neg_planes_[p].toggle_row(k);
      double* pos_c = currents_.data() + p * n_;
      double* neg_c = currents_.data() + (bits + p) * n_;
      for (std::size_t j = 0; j < n_; ++j) {
        pos_c[j] += sign * pos_t[j];
        neg_c[j] += sign * neg_t[j];
      }
    }
    bound_x_[k] ^= 1;
  }
  if (adopt_trial) {
    bound_acc_ = trial_acc_;
  } else {
    bound_acc_ = convert_columns(
        bound_x_,
        [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
  }
  trial_valid_ = false;
  if (++commits_since_rebuild_ >= kCurrentRebuildInterval) {
    rebuild_bound_currents();
  }
}

void VmvEngine::reprogram() {
  for (auto& plane : pos_planes_) plane.reprogram(reprogram_rng_);
  for (auto& plane : neg_planes_) plane.reprogram(reprogram_rng_);
  if (bound_) {
    // The stored conductances changed under the bound state: refresh the
    // cached currents and re-digitize the bound configuration.
    trial_valid_ = false;
    rebuild_bound_currents();
    bound_acc_ = convert_columns(
        bound_x_,
        [&](std::size_t p, std::size_t j) { return currents_[p * n_ + j]; });
  }
}

std::size_t VmvEngine::adc_clips() const { return adc_.clip_count(); }

}  // namespace hycim::cim
