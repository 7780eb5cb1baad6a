// The HyCiM solver facade (paper Fig. 3): inequality-QUBO transformation +
// FeFET filters + FeFET crossbar + SA logic, wired together.
//
// The facade is problem-generic: it is constructed from a
// ConstrainedQuboForm — the one shape every COP lowers to via the
// to_constrained_form() adapters in src/cop/ (QKP, MDKP, bin packing,
// graph coloring, ...) — and knows nothing about the originating problem.
// Every constraint row maps to its own filter in one cim::FilterBank: an
// inequality to a skewed comparator, an equality to a window comparator.
//
// Fidelity is configurable on two axes:
//   * the QUBO computation (VmvMode: ideal / quantized / full circuit);
//   * the feasibility check (hardware filters with device noise, or the
//     exact software predicates).
// The defaults — quantized energies + hardware filters — capture the
// dominant hardware effects while staying fast enough to run the paper's
// Sec. 4.3 sweep (thousands of SA runs) on a laptop.  Under kIdeal and
// kQuantized a walk reads one frozen matrix, the source matrix or the one
// cim::program picks; only kCircuit fabricates a cim::VmvEngine.  Cost is
// not configurable: the per-flip kernel of the software walks follows
// that matrix's density (qubo::FrozenQubo::kernel()), and circuit mode
// runs the engine's one exact bound-state kernel.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "anneal/strategy.hpp"
#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/filter_bank.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "core/constrained_form.hpp"
#include "core/solve_status.hpp"
#include "qubo/qubo_matrix.hpp"

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
  cim::InequalityFilterParams filter{};
  cim::VmvEngineParams vmv{};  ///< circuit corners (kCircuit fidelity only)
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
  /// The per-flip kernel of the chip's evaluation matrix (HyCimSolver::
  /// kernel()) — recorded so benches and the perf trajectory know which
  /// kernel produced a timing.
  qubo::Kernel kernel = qubo::Kernel::kDense;
};

/// One fabricated HyCiM instance bound to a constrained QUBO form.
class HyCimSolver {
 public:
  /// Fabricates a chip for `form`.  Throws std::invalid_argument when the
  /// form has no variables, or, naming the row, when a constraint row's
  /// width is not form.size().
  HyCimSolver(const ConstrainedQuboForm& form, const HyCimConfig& config);

  /// "Program once, solve many": a fresh measurement on `proto`'s
  /// fabricated hardware without re-running fabrication.  The clone shares
  /// everything fabrication fixed — the form, the frozen matrices, the
  /// filter arrays' cells and loads, the row incidence and, in kCircuit
  /// mode, the programmed crossbars — and copies only what a walk mutates:
  /// bound states, scratch, comparator noise streams (restarted from
  /// `decision_seed`; 0 keeps the proto's streams) and, in kCircuit mode,
  /// the ADC.  Bit-identical to
  /// constructing a fresh solver from (proto.form(), proto config with
  /// filter.decision_seed = decision_seed) — batch protocols use this to
  /// model N independent repeated measurements on one programmed chip for
  /// a few kilobytes each instead of N fabrications.
  HyCimSolver(const HyCimSolver& proto, std::uint64_t decision_seed);

  ~HyCimSolver();
  HyCimSolver(HyCimSolver&&) noexcept;
  HyCimSolver& operator=(HyCimSolver&&) noexcept;

  /// Runs the configured search strategy (config.search) from the given
  /// initial configuration (must be size() bits and satisfy every
  /// constraint).  `run_seed` drives all run-level randomness — the walk
  /// proposals and, under tempering, the per-replica comparator decision
  /// streams — so repeated calls explore independently.  A multi-replica
  /// search clones this solver once per replica ("program once, temper
  /// many"); a form with no rows walks plain anneal::QuboProblems over the
  /// shared evaluation matrix instead (unless the fidelity is kCircuit or
  /// check_incremental is on), bit-identical to the clones.
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

  /// The per-flip kernel of the ideal/quantized walks: the evaluation
  /// matrix's own (qubo::FrozenQubo::kernel(), from its density).
  qubo::Kernel kernel() const { return eval_->kernel(); }

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

  /// The filter bank of every constraint row (nullptr in software filter
  /// mode or when the form has no rows).  Inequality i is
  /// FilterBank::filter(i); equality e is filter(constraints.size() + e).
  cim::FilterBank* filter_bank() { return bank_.get(); }
  /// The frozen matrix a software walk reads: the form's matrix under
  /// kIdeal, the matrix cim::program picks otherwise (under kCircuit, from
  /// the engine's own quantization) — one object shared by this chip and
  /// every clone of it.  Outside kCircuit the mirror or neighbor index its
  /// kernel reads is built at fabrication; a circuit chip builds neither.
  const qubo::FrozenQuboPtr& eval_matrix() const { return eval_; }

  /// Erases and re-programs filters + crossbars with fresh cycle-to-cycle
  /// noise (the Fig. 7(f) repeated-measurement protocol).
  void reprogram();

 private:
  class Problem;

  std::shared_ptr<const ConstrainedQuboForm> form_;
  HyCimConfig config_;
  qubo::FrozenQuboPtr eval_;  ///< see eval_matrix(); clones share it
  /// The circuit computing xᵀQx (kCircuit only; null otherwise).
  std::unique_ptr<cim::VmvEngine> engine_;
  std::unique_ptr<cim::FilterBank> bank_;
  // Row incidence of the exact totals: variable -> the ids of the rows
  // (ConstrainedQuboForm::row order) whose weights contain it, so per-flip
  // totals updates and feasibility trials touch O(incidence) rows instead
  // of all of them (the MDKP / bin-packing win; a QKP has one
  // all-variables row and is unaffected).  Fixed by the form, so every
  // clone shares it.
  std::shared_ptr<const std::vector<std::vector<std::uint32_t>>> rows_by_var_;
};

}  // namespace hycim::core
