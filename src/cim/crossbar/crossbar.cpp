#include "cim/crossbar/crossbar.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hycim::cim {

device::FeFetParams CrossbarParams::binary_fefet() {
  device::FeFetParams p;
  p.num_levels = 2;  // erased (bit 0) vs fully programmed (bit 1)
  return p;
}

double CrossbarParams::nominal_cell_current() const {
  const double overdrive = device::FeFet::read_voltage(fefet, 1) -
                           device::FeFet::nominal_vth(fefet, 1);
  const double rch =
      fefet.rch0 / (1.0 + fefet.gm_lin * std::max(0.0, overdrive));
  return v_dl / (r_series + rch);
}

CrossbarArray::CrossbarArray(const CrossbarParams& params, std::size_t rows,
                             std::size_t cols,
                             std::span<const std::uint8_t> bits,
                             device::VariationModel& fab)
    : params_(params), rows_(rows), cols_(cols),
      bits_(bits.begin(), bits.end()) {
  if (bits.size() != rows * cols) {
    throw std::invalid_argument("CrossbarArray: bits size mismatch");
  }
  if (params_.fefet.num_levels != 2) {
    throw std::invalid_argument("CrossbarArray: needs a binary device corner");
  }
  v_read_ = device::FeFet::read_voltage(params_.fefet, 1);

  device::CellParams cell_params;
  cell_params.r_series = params_.r_series;
  cell_params.v_dd = params_.v_dl;

  auto devices = fab.fabricate(params_.fefet, rows * cols);
  cells_.reserve(devices.size());
  for (std::size_t k = 0; k < devices.size(); ++k) {
    cells_.emplace_back(std::move(devices[k]), cell_params,
                        fab.resistor_factor());
    cells_.back().program(bits_[k] ? 1 : 0, fab.rng());
  }
  rebuild_cache();
}

void CrossbarArray::rebuild_cache() {
  cell_current_.assign(cells_.size(), 0.0);
  leak_current_.assign(cells_.size(), 0.0);
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    cell_current_[k] = cells_[k].current(v_read_, params_.v_dl);
    leak_current_[k] = cells_[k].current(0.0, params_.v_dl);
  }
  cell_by_col_.assign(cells_.size(), 0.0);
  leak_by_col_.assign(cells_.size(), 0.0);
  toggle_current_.assign(cells_.size(), 0.0);
  for (std::size_t row = 0; row < rows_; ++row) {
    for (std::size_t col = 0; col < cols_; ++col) {
      const std::size_t k = row * cols_ + col;
      cell_by_col_[col * rows_ + row] = cell_current_[k];
      leak_by_col_[col * rows_ + row] = leak_current_[k];
      toggle_current_[k] = cell_current_[k] - leak_current_[k];
    }
  }
}

double CrossbarArray::column_current(std::span<const std::uint8_t> x_rows,
                                     std::size_t col) const {
  assert(x_rows.size() == rows_);
  assert(col < cols_);
  // Contiguous column-major passes; the ON/leak select stays a select
  // (never `leak + x·(on−leak)`, which would reassociate the float math)
  // so the sum is bit-identical to the strided row-major walk — the
  // accumulation order over rows is unchanged.
  const double* on = cell_by_col_.data() + col * rows_;
  const double* off = leak_by_col_.data() + col * rows_;
  double i = 0.0;
  for (std::size_t row = 0; row < rows_; ++row) {
    i += x_rows[row] ? on[row] : off[row];
  }
  return i;
}

double CrossbarArray::activated_cells_current(std::size_t count) const {
  double i = 0.0;
  std::size_t activated = 0;
  for (std::size_t k = 0; k < cells_.size() && activated < count; ++k) {
    if (bits_[k]) {
      i += cell_current_[k];
      ++activated;
    }
  }
  return i;
}

void CrossbarArray::reprogram(util::Rng& rng) {
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    cells_[k].program(bits_[k] ? 1 : 0, rng);
  }
  rebuild_cache();
}

void CrossbarArray::age(double seconds) {
  for (auto& cell : cells_) cell.age(seconds);
  rebuild_cache();
}

std::uint8_t CrossbarArray::bit(std::size_t row, std::size_t col) const {
  return bits_.at(row * cols_ + col);
}

}  // namespace hycim::cim
