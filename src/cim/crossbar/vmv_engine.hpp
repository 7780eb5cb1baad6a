// Vector-matrix-vector (VMV) QUBO computation engine (paper Sec. 3.4).
//
// Maps a quantized QUBO matrix onto bit-plane crossbars (one positive and
// one negative plane set) and computes E(x) = xᵀQx through column currents:
// the input x is applied to the word lines (xᵀ side) while the same x
// selects/drives the columns (x side); each selected column's current is
// digitized by an ADC and the codes are shift-added across bit planes
// (Fig. 6(a): "Add Shift Sum").
//
// Three fidelity modes let callers trade accuracy modelling for speed:
//   kIdeal      — exact double-precision energy of the *original* matrix;
//   kQuantized  — exact energy of the *quantized* matrix (the dominant
//                 hardware effect; fast enough for SA-in-the-loop);
//   kCircuit    — full per-cell current + ADC path (used for validation
//                 and the chip-level experiments of Fig. 7).
// The owner passes the mode and the quantization budget to the
// constructor; VmvEngineParams holds only the circuit's settings.  Circuit
// mode has one bound-state kernel, the exact full-row update: every cell's
// leakage is modelled on every flip, whatever the matrix's density.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cim/crossbar/adc.hpp"
#include "cim/crossbar/bit_slice.hpp"
#include "cim/crossbar/crossbar.hpp"
#include "device/variation.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::cim {

/// Evaluation fidelity of the engine.
enum class VmvMode {
  kIdeal,
  kQuantized,
  kCircuit,
};

/// The circuit settings of an engine (read in kCircuit mode only).
struct VmvEngineParams {
  AdcParams adc{};                      ///< per-column ADC corner
  CrossbarParams crossbar{};            ///< cell corner
  device::VariationParams variation{};  ///< fabrication corners
  std::uint64_t fab_seed = 7;
};

/// A programmed VMV engine for one QUBO matrix.
class VmvEngine {
 public:
  /// Quantizes `q` to at most `matrix_bits` magnitude bits and, in
  /// kCircuit mode, fabricates and programs the bit-plane crossbars with
  /// the `circuit` settings.  Outside kCircuit an exact quantization is
  /// only measured (cim::measure_quantization): its values are the
  /// original's, so no quantized copy is made until quantized() is asked
  /// for.  For an integral matrix within matrix_bits that measurement is
  /// the record of q's freeze pass (exactness, magnitude bits), so the
  /// engine reads no coefficient; other matrices get one scaled pass.
  VmvEngine(qubo::FrozenQuboPtr q, VmvMode mode, int matrix_bits,
            const VmvEngineParams& circuit = {});

  ~VmvEngine();
  VmvEngine(VmvEngine&&) noexcept;
  VmvEngine& operator=(VmvEngine&&) noexcept;

  /// Copy: duplicates the fabricated crossbars, ADC, and bound state, and
  /// shares the read-only matrices (original, quantized — built or not —
  /// and evaluation).  A copy behaves exactly like re-fabricating with the
  /// same seeds, minus the fabrication cost — the "program once, solve
  /// many" hook for batch protocols.
  VmvEngine(const VmvEngine& other);

  /// QUBO energy of configuration `x` at the configured fidelity
  /// (original-matrix units; includes the matrix's constant offset).
  double energy(std::span<const std::uint8_t> x);

  // --- Bound-state (incremental trial-move) evaluation, kCircuit mode. -----
  // A full circuit energy() re-sums every cell of every selected column:
  // O(n² · bits).  For SA, successive candidates differ by one or two bits,
  // and a bit flip shifts each column's analog current by exactly that
  // row's cell-vs-leak difference.  bind(x) caches all column currents
  // once; trial() then adjusts the touched rows' contributions and re-runs
  // only the ADC conversions: O(n · bits) per proposal.  Conversions happen
  // in the same column/plane order as energy(), so with a noiseless ADC the
  // trial result equals a full recompute of the candidate (energy() stays
  // available as the cross-check oracle), and with ADC noise the stream
  // advances exactly as a full evaluation would.
  // kIdeal/kQuantized callers keep using qubo::IncrementalEvaluator; these
  // methods throw std::logic_error outside kCircuit mode.

  /// Caches per-column analog currents and the energy of `x`.
  void bind(std::span<const std::uint8_t> x);
  /// Drops the bound state.
  void unbind();
  /// Whether a configuration is bound.
  bool bound() const { return bound_; }
  /// Energy of the bound configuration (original-matrix units).
  double bound_energy() const;
  /// The bound configuration.
  const std::vector<std::uint8_t>& bound_input() const;
  /// Energy of the bound configuration with the bits in `flips` toggled
  /// (bound state unchanged).  The result is memoized so an immediately
  /// following apply() of the same flips adopts it without reconverting.
  double trial(std::span<const std::size_t> flips);
  /// Commits `flips` into the bound state, updating the cached currents.
  void apply(std::span<const std::size_t> flips);

  /// Commits between exact recomputations of the cached column currents
  /// (bounds float drift from repeated incremental updates).
  static constexpr std::size_t kCurrentRebuildInterval = 64;

  /// Number of variables.
  std::size_t size() const { return n_; }

  /// The matrix this engine was programmed from.
  const qubo::FrozenQubo& original() const { return *original_; }

  /// The quantized matrix actually mapped to the hardware.  Built at
  /// construction in kCircuit mode or when the quantization is inexact;
  /// otherwise on the first call (thread-safe), once for this engine and
  /// every copy of it.
  const QuantizedQubo& quantized() const;

  /// The matrix an incremental evaluator walks to reproduce this engine's
  /// energies outside kCircuit: the original under kIdeal, the dequantized
  /// matrix otherwise — the original itself, shared, when the
  /// quantization is exact (then no quantized copy exists at all unless
  /// quantized() is called).
  const qubo::FrozenQuboPtr& eval_matrix() const { return eval_; }

  /// Magnitude bits per element stored in the crossbars.
  int magnitude_bits() const { return magnitude_bits_; }

  /// Re-programs all crossbars with fresh cycle-to-cycle noise
  /// (kCircuit mode; the Fig. 7(f) erase/reprogram experiment).
  void reprogram();

  /// Total full-scale ADC clips across all conversions so far.
  std::size_t adc_clips() const;

  /// The circuit settings.
  const VmvEngineParams& params() const { return params_; }

 private:
  double circuit_energy(std::span<const std::uint8_t> x);
  void rebuild_bound_currents();
  /// Shift-added ADC accumulation over the candidate's selected columns,
  /// reading analog currents through `current_of(plane_index, col)` where
  /// plane_index runs over [0, bits) positive then [bits, 2·bits) negative.
  template <typename CurrentFn>
  long long convert_columns(std::span<const std::uint8_t> x,
                            CurrentFn&& current_of);

  /// The quantized matrix, built at most once and shared by copies.
  struct Quantization {
    std::once_flag built;
    QuantizedQubo matrix;
  };

  /// The built quantization on the kCircuit paths (built at construction).
  const QuantizedQubo& circuit_q() const { return quantized_->matrix; }

  VmvMode mode_;
  int matrix_bits_;
  VmvEngineParams params_;
  std::size_t n_ = 0;
  qubo::FrozenQuboPtr original_;
  std::shared_ptr<Quantization> quantized_;
  int magnitude_bits_ = 1;
  qubo::FrozenQuboPtr eval_;
  std::vector<CrossbarArray> pos_planes_;  // one crossbar per magnitude bit
  std::vector<CrossbarArray> neg_planes_;
  std::unique_ptr<device::VariationModel> fab_;
  std::unique_ptr<Adc> adc_;
  util::Rng reprogram_rng_;
  // Bound state: analog current of every (plane, column) under bound_x_,
  // positive planes first, then negative: currents_[(p)·n + col].
  bool bound_ = false;
  std::vector<std::uint8_t> bound_x_;
  std::vector<double> currents_;
  long long bound_acc_ = 0;  ///< shift-added code sum of bound_x_
  std::size_t commits_since_rebuild_ = 0;
  // Memoized last trial (flips + code sum) so apply() can adopt it.
  std::vector<std::size_t> trial_flips_;
  long long trial_acc_ = 0;
  bool trial_valid_ = false;
  std::vector<std::uint8_t> trial_x_;  // scratch candidate configuration
};

}  // namespace hycim::cim
