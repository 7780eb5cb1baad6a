// The pluggable search-strategy layer over the SA substrate.
//
// A strategy decides how SaProblem replicas explore the (infeasible-
// filtered) energy landscape: the classic single cooled walk, or a
// replica-exchange (parallel tempering) ensemble where R walks run at a
// static temperature ladder on R clones of one programmed chip and
// periodically propose Metropolis swaps of their ladder positions — the
// standard escape mechanism when one cooling walk gets trapped behind the
// constraint boundary (paper Sec. 4.3; the ferroelectric CiM annealer of
// arXiv:2309.13853 couples replicas on one array the same way).
//
// Determinism contract (the same one runtime::run_batch enforces): replica
// r draws every proposal from util::fork_stream(seed, r), exchange
// decisions come from one dedicated serial stream, and barriers are
// synchronization points — so the result is a pure function of (problems,
// x0, params, seed) and bit-identical for any Executor, whether replicas
// run on one thread or sixteen.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {

/// Tag selecting the classic single-walk SA (the default strategy).
struct SaSearch {
  bool operator==(const SaSearch&) const = default;
};

/// Replica-exchange (parallel tempering) knobs.  The per-replica walk
/// budget and proposal behavior come from SaParams; these parameters shape
/// the ladder and the exchange cadence.
struct TemperingParams {
  /// Number of concurrent replicas (>= 2).  Each binds its own cloned
  /// programmed chip, so a tempered solve costs replicas × SaParams
  /// .iterations QUBO computations.
  std::size_t replicas = 4;
  /// Ladder span: slot s runs at T_hot · t_ratio^(s/(R-1)), so the coldest
  /// replica sits at T_hot · t_ratio.  Must be in (0, 1].  T_hot is
  /// SaParams.t0, auto-calibrated when 0.  The default matched the cooled
  /// single walk's success rate on the paper's QKP suite at equal QUBO
  /// budget while beating it on the dense (75/100%) instances.
  double t_ratio = 0.05;
  /// QUBO computations each replica performs between exchange barriers
  /// (>= 1).  Smaller intervals couple the ladder tighter at the cost of
  /// more frequent synchronization.
  std::size_t exchange_interval = 25;
  /// Whether to record the per-pair ExchangeEvent trace.  The counters
  /// (exchanges_proposed / exchanges_accepted, including the per-replica
  /// attribution) stay exact either way — the flag only bounds the memory
  /// of long runs, where iterations/exchange_interval × replicas/2 events
  /// would otherwise grow without limit.  The exchange stream draws the
  /// same uniforms regardless, so results are bit-identical modulo the
  /// trace itself.
  bool record_trace = true;

  bool operator==(const TemperingParams&) const = default;
};

/// How islands exchange elites in the archipelago (pagmo-style topology).
enum class MigrationTopology : std::uint8_t {
  kRing = 0,            ///< island i receives from island (i−1) mod N
  kFullyConnected = 1,  ///< donor drawn uniformly among the other islands
  kNone = 2,            ///< no migration (independent islands)
};

/// Human-readable topology name ("ring" / "fully_connected" / "none").
const char* topology_name(MigrationTopology topology);

/// The per-island strategy selection: any non-island search kind.
using IslandSearch = std::variant<SaSearch, TemperingParams>;

/// Island-model (archipelago) knobs.  N islands each run an independent
/// sub-strategy — single-walk SA or a replica-exchange ladder, assigned
/// round-robin from `roster` — on clones of one programmed chip, and
/// synchronize every `migration_interval` QUBO computations per replica:
/// best-solution migration over `topology`, population-annealing
/// resampling of stagnant islands from the global elite, and adaptive
/// respacing of tempering ladders toward `target_acceptance`.
struct ArchipelagoParams {
  /// Number of islands (>= 2).  Total replica cost per solve is the sum of
  /// each island's replica count × SaParams.iterations QUBO computations.
  std::size_t islands = 4;
  /// Per-island search kinds, cycled: island i runs roster[i % size].
  /// Empty selects default-parameter replica exchange on every island.
  std::vector<IslandSearch> roster;
  /// Elite-exchange pattern at migration barriers.
  MigrationTopology topology = MigrationTopology::kRing;
  /// QUBO computations each replica performs between migration barriers
  /// (>= 1).  Tempering islands keep their own (typically shorter)
  /// exchange cadence between barriers.
  std::size_t migration_interval = 100;
  /// Population annealing: an island whose best has not improved for this
  /// many consecutive migration barriers is killed and every replica
  /// reseeded from the archipelago's best configuration.  0 disables
  /// resampling.  The global-best island itself is never resampled.
  std::size_t stagnation_epochs = 4;
  /// Adaptive ladders: at each migration barrier, respace every tempering
  /// island's geometric ladder from its measured exchange-acceptance rate
  /// (see respace_t_ratio); a pure function of the counters, so the
  /// determinism contract is untouched.
  bool adapt_ladder = true;
  /// The exchange-acceptance rate adaptive ladders steer toward (in
  /// (0, 1); ~0.3 is the standard parallel-tempering sweet spot).
  double target_acceptance = 0.3;
  /// Whether to record migration / resample / exchange traces.  Counters
  /// stay exact either way (same contract as TemperingParams::record_trace).
  bool record_trace = true;

  bool operator==(const ArchipelagoParams&) const = default;
};

/// The search-strategy selector carried by core::HyCimConfig.
using SearchParams = std::variant<SaSearch, TemperingParams, ArchipelagoParams>;

/// Rejects out-of-domain tempering parameters (`replicas` < 2,
/// `exchange_interval` == 0, `t_ratio` outside (0, 1]) with
/// std::invalid_argument.
void validate(const TemperingParams& params);

/// Rejects out-of-domain archipelago parameters (`islands` < 2,
/// `migration_interval` == 0, unknown `topology`, `target_acceptance`
/// outside (0, 1), invalid roster entries) with std::invalid_argument.
void validate(const ArchipelagoParams& params);

/// Sum of per-island replica counts — the number of chip clones an
/// archipelago solve binds, and the factor a batch's QUBO budget scales by.
std::size_t total_replicas(const ArchipelagoParams& params);

/// One proposed ladder exchange: at barrier `barrier`, the replicas holding
/// slots `slot` and `slot + 1` ({replica_lo, replica_hi}) were offered a
/// Metropolis swap.  The trace of these events is part of the deterministic
/// output — bit-identical for any thread count.
struct ExchangeEvent {
  std::size_t barrier = 0;
  std::size_t slot = 0;        ///< the colder-indexed slot of the pair
  std::size_t replica_lo = 0;  ///< replica at `slot` when proposed
  std::size_t replica_hi = 0;  ///< replica at `slot + 1` when proposed
  bool accepted = false;

  bool operator==(const ExchangeEvent&) const = default;
};

/// Per-replica walk and exchange counters (Reply/RunRecord observability).
struct ReplicaCounters {
  std::size_t evaluated = 0;  ///< QUBO computations by this replica
  std::size_t proposed = 0;
  std::size_t accepted = 0;
  std::size_t rejected_infeasible = 0;
  std::size_t rejected_metropolis = 0;
  std::size_t exchanges_accepted = 0;  ///< accepted swaps involving it
  double best_energy = 0.0;
  double final_energy = 0.0;

  bool operator==(const ReplicaCounters&) const = default;
};

/// One proposed elite migration: at migration barrier `epoch`, island
/// `from_island`'s best configuration (energy `migrant_energy`) was offered
/// to `to_island`, whose worst replica then held `displaced_energy`.
/// Accepted iff the migrant strictly improves on the displaced replica.
struct MigrationEvent {
  std::size_t epoch = 0;
  std::size_t from_island = 0;
  std::size_t to_island = 0;
  double migrant_energy = 0.0;
  double displaced_energy = 0.0;
  bool accepted = false;

  bool operator==(const MigrationEvent&) const = default;
};

/// One population-annealing resample: at barrier `epoch`, stagnant island
/// `island` (best `stagnant_best`, unimproved for the configured number of
/// epochs) had every replica reseeded from `source_island`'s elite
/// configuration (energy `elite_energy`).
struct ResampleEvent {
  std::size_t epoch = 0;
  std::size_t island = 0;
  std::size_t source_island = 0;
  double stagnant_best = 0.0;
  double elite_energy = 0.0;

  bool operator==(const ResampleEvent&) const = default;
};

/// Per-island aggregate statistics (Reply/RunRecord observability).
struct IslandStats {
  std::size_t replicas = 1;       ///< replica slots this island drives
  std::size_t search_kind = 0;    ///< IslandSearch variant index (0=SA, 1=PT)
  std::size_t evaluated = 0;      ///< QUBO computations on this island
  std::size_t proposed = 0;
  std::size_t accepted = 0;
  double best_energy = 0.0;       ///< island best over the whole run
  std::size_t exchanges_proposed = 0;  ///< island-local ladder barriers
  std::size_t exchanges_accepted = 0;
  std::size_t migrants_in = 0;    ///< accepted migrations into the island
  std::size_t migrants_out = 0;   ///< this island's elite adopted elsewhere
  std::size_t resamples = 0;      ///< times killed and reseeded
  std::size_t respaces = 0;       ///< adaptive ladder respacings applied
  double t_ratio = 0.0;           ///< final ladder ratio (tempering islands)

  bool operator==(const IslandStats&) const = default;
};

/// The ensemble observability of one search — declared once and inherited
/// by every level that reports a solve (SearchResult, core::SolveResult,
/// runtime::RunRecord), so passing it up is one slice assignment.
/// Single-walk SA leaves every field empty, replica exchange fills the
/// replica/exchange fields, and an archipelago fills the island fields too.
struct SearchTelemetry {
  /// Per-replica walk/exchange counters and the deterministic
  /// ladder-exchange trace.
  std::vector<ReplicaCounters> replicas;
  std::vector<ExchangeEvent> exchange_trace;
  std::size_t exchanges_proposed = 0;
  std::size_t exchanges_accepted = 0;
  /// Per-island statistics and the deterministic migration/resample traces
  /// with their exact counters.
  std::vector<IslandStats> islands;
  std::vector<MigrationEvent> migration_trace;
  std::vector<ResampleEvent> resample_trace;
  std::size_t migrations_proposed = 0;
  std::size_t migrations_accepted = 0;
  std::size_t resamples = 0;
  std::size_t respaces = 0;
};

/// Outcome of one strategy run.  `sa` aggregates the ensemble: counters are
/// sums over replicas, best_x/best_energy the ensemble best (ties break to
/// the lowest replica index), final_x/final_energy the state of the replica
/// holding the coldest ladder slot at the end.
struct SearchResult : SearchTelemetry {
  SaResult sa;
  /// kNone for a run that completed its full budget; kCancelled /
  /// kDeadlineExceeded when a cancel token stopped the search early at a
  /// segment or migration-barrier checkpoint — `sa` then holds the
  /// any-time best-so-far (a valid partial result, not garbage).
  util::StopReason stopped = util::StopReason::kNone;
};

/// One unit of replica work dispatched by a strategy.
using Task = std::function<void(std::size_t index)>;
/// Runs tasks 0..count-1, each exactly once, and returns after all have
/// completed.  Implementations may use any threads in any order: every
/// task only touches its own replica's state, so scheduling cannot leak
/// into results.  The runtime layer supplies a pooled implementation;
/// run_serial is the single-threaded default.
using Executor = std::function<void(std::size_t count, const Task& task)>;

/// The default executor: tasks run in index order on the calling thread.
void run_serial(std::size_t count, const Task& task);

/// A search strategy: drives `replicas()` SaProblem instances — each bound
/// to its own (cloned) chip by the caller — from one initial configuration.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// How many SaProblem replicas run() expects (1 for single-walk SA).
  virtual std::size_t replicas() const = 0;

  /// Runs the search.  `problems.size()` must equal replicas(); `seed`
  /// overrides SaParams.seed and roots every stream the strategy forks.
  /// `cancel` is polled at segment / exchange / migration boundaries: when
  /// it fires, the strategy stops early and returns its any-time
  /// best-so-far with SearchResult::stopped set.  An unarmed (default)
  /// token costs one null check — results stay bit-identical to the
  /// pre-cancellation code, and an armed token that never fires does not
  /// perturb any stream either.
  virtual SearchResult run(std::span<SaProblem* const> problems,
                           const qubo::BitVector& x0, const SaParams& sa,
                           std::uint64_t seed, const Executor& executor,
                           const util::CancelToken& cancel) const = 0;
};

/// The classic single cooled walk — simulated_annealing() behind the
/// Strategy interface, bit-identical to calling it directly.
class SingleSa final : public Strategy {
 public:
  std::size_t replicas() const override { return 1; }
  SearchResult run(std::span<SaProblem* const> problems,
                   const qubo::BitVector& x0, const SaParams& sa,
                   std::uint64_t seed, const Executor& executor,
                   const util::CancelToken& cancel) const override;
};

/// Replica exchange over a static geometric temperature ladder.
///
/// Replica r's proposals draw from util::fork_stream(seed, r); every
/// `exchange_interval` QUBO computations all replicas synchronize and
/// adjacent ladder slots (alternating even/odd pairings per barrier)
/// propose to swap their temperature labels with acceptance
/// min(1, exp((β_a − β_b)(E_a − E_b))) — configurations stay put, so a
/// swap costs O(1) instead of a state rebind.  Exchange randomness comes
/// from one serial stream, making the trace (and everything else)
/// independent of how the Executor schedules replica segments.
class ReplicaExchange final : public Strategy {
 public:
  explicit ReplicaExchange(const TemperingParams& params);

  std::size_t replicas() const override { return params_.replicas; }
  SearchResult run(std::span<SaProblem* const> problems,
                   const qubo::BitVector& x0, const SaParams& sa,
                   std::uint64_t seed, const Executor& executor,
                   const util::CancelToken& cancel) const override;

  const TemperingParams& params() const { return params_; }

 private:
  TemperingParams params_;
};

/// Instantiates the strategy selected by `search` (validated).
std::unique_ptr<Strategy> make_strategy(const SearchParams& search);

/// One Metropolis exchange barrier over the ladder (the micro-kernel of
/// ReplicaExchange, exposed for testing and bench/micro_kernels'
/// BM_ExchangeStep).  Pairs slots (s, s+1) for s ≡ barrier (mod 2) in
/// ascending slot order; a pair with a non-negative exponent swaps
/// deterministically, otherwise one uniform is drawn from `rng` (the same
/// short-circuit idiom as the SA engine's Metropolis accept, so draw
/// counts depend on the energies — the stream stays deterministic because
/// the sweep is serial).  On acceptance the `replica_at_slot` entries
/// swap.
/// `slot_beta[s]` is slot s's inverse temperature (slot 0 is the hottest,
/// so betas ascend with s); `replica_energy[r]` the current energy of
/// replica r.  Appends one
/// ExchangeEvent per proposed pair to `trace` when non-null; returns the
/// number of accepted swaps.
std::size_t exchange_step(std::size_t barrier,
                          std::span<const double> slot_beta,
                          std::span<const double> replica_energy,
                          std::span<std::size_t> replica_at_slot,
                          util::Rng& rng, std::vector<ExchangeEvent>* trace);

}  // namespace hycim::anneal
