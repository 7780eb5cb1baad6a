// The HyCiM solver facade (paper Fig. 3): inequality-QUBO transformation +
// FeFET filters + FeFET crossbar + SA logic, wired together.
//
// The facade is problem-generic: it is constructed from a
// ConstrainedQuboForm — the one shape every COP lowers to via the
// to_constrained_form() adapters in src/cop/ (QKP, MDKP, bin packing,
// graph coloring, ...) — and knows nothing about the originating problem.
// Each inequality constraint maps to its own inequality-filter array in a
// cim::FilterBank; each equality to a window-comparator equality filter.
//
// Fidelity is configurable on two axes:
//   * the QUBO computation (VmvMode: ideal / quantized / full circuit);
//   * the feasibility check (hardware filters with device noise, or the
//     exact software predicates).
// The defaults — quantized energies + hardware filters — capture the
// dominant hardware effects while staying fast enough to run the paper's
// Sec. 4.3 sweep (thousands of SA runs) on a laptop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "anneal/strategy.hpp"
#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/equality_filter.hpp"
#include "cim/filter/filter_bank.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "core/constrained_form.hpp"
#include "core/solve_status.hpp"
#include "qubo/neighbor_index.hpp"

namespace hycim::core {

/// How the SA loop checks constraint feasibility.
enum class FilterMode {
  kHardware,  ///< FeFET filters (variation + comparator noise)
  kSoftware,  ///< exact predicates ®w·®x ≤ c / ®w·®x = c
};

/// Full HyCiM configuration.
struct HyCimConfig {
  anneal::SaParams sa{};
  /// Which search strategy drives the solve: single-walk SA (the default)
  /// or replica-exchange tempering.  `sa` stays the per-walk schedule and
  /// budget either way — under tempering every replica spends
  /// sa.iterations QUBO computations at its ladder temperature, so a
  /// tempered solve costs replicas × sa.iterations in total.
  anneal::SearchParams search = anneal::SaSearch{};
  cim::VmvMode fidelity = cim::VmvMode::kQuantized;
  int matrix_bits = 7;  ///< crossbar quantization (⌈log2 (Qij)MAX⌉ = 7)
  FilterMode filter_mode = FilterMode::kHardware;
  /// Per-flip kernel of the hot paths (the incremental evaluator's local-
  /// field updates and, in kCircuit fidelity, the VMV engine's bound-state
  /// column reconversions).  kAuto measures the evaluation matrix's
  /// density at fabrication and picks the sparse O(degree) kernel at or
  /// below qubo::kSparseDensityThreshold — the paper's density-25 suites
  /// qualify, density-50 and up stay dense.  kDense / kSparse override the
  /// measurement.  The resolved choice is recorded in SolveResult::kernel;
  /// on the ideal/quantized paths the kernels are bit-identical (sparsity
  /// changes cost, not trajectories).
  qubo::Kernel kernel = qubo::Kernel::kAuto;
  cim::InequalityFilterParams filter{};
  cim::VmvEngineParams vmv{};  ///< mode/matrix_bits overridden by the above
  /// Debug mode: cross-check every incremental trial/commit against a full
  /// recomputation (filter matchline voltages, energies) and throw
  /// std::logic_error on divergence.  O(n²) per SA step — enable in tests
  /// and when validating new device corners, never in production sweeps.
  /// Circuit-mode energy checks are skipped when ADC noise is enabled (a
  /// fresh full evaluation would draw different noise by design).
  bool check_incremental = false;
};

/// Outcome of one solve on the generic facade: the search telemetry
/// (replica/exchange and island fields, see anneal::SearchTelemetry) plus
/// the QUBO-level result.  Problem-level scores (QKP profit, bins used,
/// coloring validity, ...) are recovered by the adapter layer from best_x.
struct SolveResult : anneal::SearchTelemetry {
  qubo::BitVector best_x;    ///< best configuration found
  double best_energy = 0.0;  ///< its QUBO energy (eval-path units)
  bool feasible = false;     ///< exact feasibility of best_x (all constraints)
  /// kOk for a full-budget run; kCancelled / kDeadlineExceeded when a
  /// cancel token stopped the search at a checkpoint — best_x and the
  /// counters then describe the any-time best-so-far partial result.
  SolveStatus status = SolveStatus::kOk;
  anneal::SaResult sa;       ///< walk counters (summed over replicas when
                             ///< tempering) and optional single-walk trace
  /// The per-flip kernel that ran (resolved from HyCimConfig::kernel at
  /// fabrication: kDense or kSparse) — recorded so benches and the perf
  /// trajectory know which kernel produced a timing.
  qubo::Kernel kernel = qubo::Kernel::kDense;
};

/// One fabricated HyCiM instance bound to a constrained QUBO form.
class HyCimSolver {
 public:
  HyCimSolver(const ConstrainedQuboForm& form, const HyCimConfig& config);

  /// "Program once, solve many": duplicates `proto`'s fabricated hardware
  /// (filters, crossbars) without re-running fabrication and restarts the
  /// comparator decision-noise streams from `decision_seed` (0 keeps the
  /// proto's streams).  Bit-identical to constructing a fresh solver from
  /// (proto.form(), proto config with filter.decision_seed = decision_seed)
  /// — batch protocols use this to model N independent repeated
  /// measurements on one programmed chip at copy cost instead of N
  /// fabrications.
  HyCimSolver(const HyCimSolver& proto, std::uint64_t decision_seed);

  ~HyCimSolver();
  HyCimSolver(HyCimSolver&&) noexcept;
  HyCimSolver& operator=(HyCimSolver&&) noexcept;

  /// Runs the configured search strategy (config.search) from the given
  /// initial configuration (must be size() bits and satisfy every
  /// constraint).  `run_seed` drives all run-level randomness — the walk
  /// proposals and, under tempering, the per-replica comparator decision
  /// streams — so repeated calls explore independently.  Tempering clones
  /// this solver once per replica ("program once, temper many").
  ///
  /// Replica segments are dispatched through `executor` (anneal::Executor
  /// contract; serial by default) — the result is bit-identical for any
  /// executor, because each replica's work is a pure function of its
  /// forked stream.  Single-walk SA ignores the executor.  `cancel` is
  /// polled at the strategy's segment / exchange / migration checkpoints:
  /// when it fires, the result is the any-time best-so-far with
  /// SolveResult::status set to kCancelled or kDeadlineExceeded; an
  /// unarmed or never-firing token leaves the result bit-identical.
  SolveResult solve(const qubo::BitVector& x0, std::uint64_t run_seed,
                    const anneal::Executor& executor = anneal::run_serial,
                    const util::CancelToken& cancel = {});

  /// The configuration this chip was fabricated with.
  const HyCimConfig& config() const { return config_; }

  /// The per-flip kernel resolved at fabrication (kDense or kSparse —
  /// kAuto is resolved against the measured evaluation-matrix density).
  qubo::Kernel kernel() const { return resolved_kernel_; }

  /// Overrides the solve-time knobs — `sa`, `search`, `check_incremental`
  /// (exactly the fields service::solve_key() hashes) — leaving the
  /// fabricated hardware untouched.  When the fabrication fields of
  /// `config` match this chip's (the chip cache guarantees that), the
  /// retargeted solver is indistinguishable from one fabricated with
  /// `config` from scratch; this is what lets one cached programmed chip
  /// serve many schedules.
  void retarget_solve(const HyCimConfig& config);
  /// The constrained form in use (shared by every clone of this chip).
  const ConstrainedQuboForm& form() const { return *form_; }
  /// Number of binary variables.
  std::size_t size() const { return form_->size(); }

  /// The inequality filter bank (nullptr in software filter mode or when
  /// the form has no inequality constraints).  Per-constraint filters are
  /// reached through FilterBank::filter(i).
  cim::FilterBank* filter_bank() { return bank_.get(); }
  /// The equality filters (empty in software mode / no equalities).
  std::vector<cim::EqualityFilter>& equality_filters() {
    return equality_filters_;
  }
  /// The VMV engine computing xᵀQx.
  cim::VmvEngine& engine() { return *engine_; }
  /// The frozen matrix the incremental fast path walks, with the mirror or
  /// neighbor index its kernel reads built at fabrication — one object
  /// shared by this chip and every clone of it.
  const qubo::FrozenQuboPtr& eval_matrix() const {
    return engine_->eval_matrix();
  }

  /// Erases and re-programs filters + crossbars with fresh cycle-to-cycle
  /// noise (the Fig. 7(f) repeated-measurement protocol).
  void reprogram();

 private:
  class Problem;

  /// Builds the per-variable constraint-incidence lists (software totals)
  /// and, in hardware mode, the equality filters' support compression +
  /// incidence CSR.
  void build_incidence();

  /// Gathers equality filter e's support columns out of a full-width
  /// configuration (the filters are support-compressed).
  qubo::BitVector eq_gather(std::size_t e,
                            std::span<const std::uint8_t> x) const;

  std::shared_ptr<const ConstrainedQuboForm> form_;
  HyCimConfig config_;
  /// Owns the frozen matrices (original, quantized, and the evaluation
  /// matrix behind the incremental fast path); clones share them.
  std::unique_ptr<cim::VmvEngine> engine_;
  std::unique_ptr<cim::FilterBank> bank_;
  std::vector<cim::EqualityFilter> equality_filters_;
  qubo::Kernel resolved_kernel_ = qubo::Kernel::kDense;
  // Constraint incidence: variable -> the inequality / equality constraint
  // ids whose weight row contains it, so per-flip totals updates and
  // feasibility trials touch O(incidence) constraints instead of all of
  // them (the MDKP / bin-packing win; a QKP has one all-variables row and
  // is unaffected).
  std::vector<std::vector<std::uint32_t>> ineq_by_var_;
  std::vector<std::vector<std::uint32_t>> eq_by_var_;
  // Equality filters are fabricated over their support only (like the
  // FilterBank's inequality filters); eq_supports_[e] maps local column ->
  // global variable and eq_incidence_ routes flips to the incident
  // filters' local columns (the same cim::VariableIncidence the bank
  // uses).
  std::vector<std::vector<std::uint32_t>> eq_supports_;
  cim::VariableIncidence eq_incidence_;
};

}  // namespace hycim::core
