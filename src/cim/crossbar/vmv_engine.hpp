// Vector-matrix-vector (VMV) QUBO computation engine (paper Sec. 3.4).
//
// Maps a quantized QUBO matrix onto bit-plane crossbars (one positive and
// one negative plane set) and computes E(x) = xᵀQx through column currents:
// the input x is applied to the word lines (xᵀ side) while the same x
// selects/drives the columns (x side); each selected column's current is
// digitized by an ADC and the codes are shift-added across bit planes
// (Fig. 6(a): "Add Shift Sum").
//
// The engine is the circuit model only.  The chip's fidelity (VmvMode)
// decides whether a solve runs it at all: under kIdeal and kQuantized a
// software walk reads the matrix cim::program picks (bit_slice.hpp) — the
// quantized values the crossbar would compute with, in original units —
// and no engine is built.  Circuit mode has one bound-state kernel, the
// exact full-row update: every cell's leakage is modelled on every flip,
// whatever the matrix's density.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cim/crossbar/adc.hpp"
#include "cim/crossbar/bit_slice.hpp"
#include "cim/crossbar/crossbar.hpp"
#include "device/variation.hpp"
#include "qubo/qubo_matrix.hpp"

namespace hycim::cim {

/// The QUBO-computation fidelity of a chip:
///   kIdeal      — exact double-precision energies of the source matrix;
///   kQuantized  — exact energies of the quantized matrix (the dominant
///                 hardware effect; fast enough for SA-in-the-loop);
///   kCircuit    — the VmvEngine's per-cell current + ADC path (used for
///                 validation and the chip-level experiments of Fig. 7).
enum class VmvMode {
  kIdeal,
  kQuantized,
  kCircuit,
};

/// The circuit settings of an engine.
struct VmvEngineParams {
  AdcParams adc{};                      ///< per-column ADC corner
  CrossbarParams crossbar{};            ///< cell corner
  device::VariationParams variation{};  ///< fabrication corners
  std::uint64_t fab_seed = 7;
};

/// A fabricated VMV engine programmed with one QUBO matrix.
class VmvEngine {
 public:
  /// Quantizes `q` to at most `matrix_bits` (1..62) magnitude bits,
  /// fabricates one positive and one negative bit-plane crossbar per
  /// magnitude bit with the `circuit` settings, programs them, and
  /// calibrates the ADC.  Keeps no reference to `q`.
  ///
  /// The quantized matrix and the programmed crossbars live in immutable
  /// blocks that every copy shares; a copy duplicates only the ADC (its
  /// noise stream and clip count), the reprogramming stream and the bound
  /// state.  It behaves exactly like re-fabricating with the same seeds,
  /// minus the fabrication cost — the "program once, solve many" hook for
  /// batch protocols.  reprogram() builds fresh crossbars for this engine
  /// alone (copy on write) and leaves every other copy as it was, so
  /// copies may run on different threads at once.
  VmvEngine(const qubo::FrozenQubo& q, int matrix_bits,
            const VmvEngineParams& circuit = {});

  /// Circuit energy of configuration `x`: every selected column's current
  /// through the ADC (original-matrix units; includes the matrix's
  /// constant offset).
  double energy(std::span<const std::uint8_t> x);

  // --- Bound-state (incremental trial-move) evaluation. --------------------
  // A full energy() re-sums every cell of every selected column:
  // O(n² · bits).  For SA, successive candidates differ by one or two bits,
  // and a bit flip shifts each column's analog current by exactly that
  // row's cell-vs-leak difference.  bind(x) caches all column currents
  // once; trial() then adjusts the touched rows' contributions and re-runs
  // only the ADC conversions: O(n · bits) per proposal.  Conversions happen
  // in the same column/plane order as energy(), so with a noiseless ADC the
  // trial result equals a full recompute of the candidate (energy() stays
  // available as the cross-check oracle), and with ADC noise the stream
  // advances exactly as a full evaluation would.

  /// Caches per-column analog currents and the energy of `x`.
  void bind(std::span<const std::uint8_t> x);
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

  /// The quantized matrix mapped to the crossbars (shared by copies).
  const QuantizedQubo& quantized() const { return *quantized_; }

  /// Magnitude bits per element stored in the crossbars.
  int magnitude_bits() const { return quantized_->magnitude_bits; }

  /// Re-programs all crossbars with fresh cycle-to-cycle noise (the
  /// Fig. 7(f) erase/reprogram experiment), drawn from this engine's own
  /// reprogramming stream into a copy of the shared crossbars.
  void reprogram();

  /// Total full-scale ADC clips across all conversions so far.
  std::size_t adc_clips() const;

  /// The circuit settings.
  const VmvEngineParams& params() const { return params_; }

 private:
  void rebuild_bound_currents();
  /// Shift-added ADC accumulation over the candidate's selected columns,
  /// reading analog currents through `current_of(plane_index, col)` where
  /// plane_index runs over [0, bits) positive then [bits, 2·bits) negative.
  template <typename CurrentFn>
  long long convert_columns(std::span<const std::uint8_t> x,
                            CurrentFn&& current_of);

  /// The programmed crossbars: one positive and one negative plane per
  /// magnitude bit.  Immutable once shared.
  struct Planes {
    std::vector<CrossbarArray> pos;
    std::vector<CrossbarArray> neg;
  };

  VmvEngineParams params_;
  std::size_t n_ = 0;
  std::shared_ptr<const QuantizedQubo> quantized_;
  std::shared_ptr<const Planes> planes_;
  Adc adc_;
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
