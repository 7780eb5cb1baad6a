// The archipelago runtime: heterogeneous strategy islands over one chip.
//
// N islands — each a single cooled SA walk or a replica-exchange ladder,
// assigned round-robin from ArchipelagoParams::roster — run concurrently
// on clones of one programmed chip and synchronize every
// `migration_interval` QUBO computations per replica (a *migration
// barrier* / epoch).  At each barrier, serially and in island order:
//
//   1. migration — each island may adopt another island's best-so-far
//      configuration over the configured topology (ring: the left
//      neighbor donates; fully-connected: a uniformly drawn donor), the
//      migrant replacing the destination's worst replica iff it strictly
//      improves on it (pagmo2's generalized island model);
//   2. resampling — population annealing: an island whose best has not
//      improved for `stagnation_epochs` consecutive barriers is killed
//      and every replica reseeded from the archipelago's elite;
//   3. ladder respacing — each tempering island's geometric ladder is
//      respaced from its measured exchange-acceptance rate toward
//      `target_acceptance` (see respace_t_ratio), the adaptive-ladder
//      idea of the ferroelectric CiM annealer line (arXiv:2309.13853).
//
// Determinism contract (the run_batch / ReplicaExchange one): replica g
// draws from util::fork_stream(seed, g) for the global replica index g;
// each island's exchange and calibration streams fork from a per-island
// seed; the migration stream is one dedicated serial fork; respacing is a
// pure function of measured counters.  Barriers are synchronization
// points, so the result — including the migration and resample traces —
// is a pure function of (problems, x0, params, seed), bit-identical for
// any Executor and any thread count.
//
// Scheduling: islands fan out as executor tasks and each island fans its
// replica segments through the *same* executor — with the pooled
// executor this is the islands → replica-segments subtree of the
// three-level batch tree (runs × islands × replicas) on one shared
// width budget.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "anneal/strategy.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {

/// "No donor accepted" marker in migration_step's accepted_source output.
inline constexpr std::size_t kNoMigrant = static_cast<std::size_t>(-1);

/// One elite-migration barrier over the island bests (the micro-kernel of
/// Archipelago, exposed for testing and bench/micro_kernels'
/// BM_MigrationStep).  For each destination island d in ascending order,
/// selects the donor s per `topology` — ring: (d−1) mod N, no randomness;
/// fully-connected: uniform among the other islands, one draw from `rng`
/// per destination (the serial sweep keeps the stream deterministic);
/// none: no proposals — and accepts iff island_best[s] strictly improves
/// on island_worst[d] (the destination's worst replica's current energy).
/// Writes the accepted donor (or kNoMigrant) into accepted_source[d],
/// appends one MigrationEvent per proposal to `trace` when non-null, and
/// returns the number of accepted migrations.
std::size_t migration_step(std::size_t epoch, MigrationTopology topology,
                           std::span<const double> island_best,
                           std::span<const double> island_worst,
                           util::Rng& rng,
                           std::span<std::size_t> accepted_source,
                           std::vector<MigrationEvent>* trace);

/// The adaptive-ladder update (the micro-kernel behind BM_LadderRespace):
/// the next geometric ladder ratio given the measured exchange-acceptance
/// rate.  Works on the log-span of the ladder, span = −ln(t_ratio): a
/// measured acceptance above target means adjacent slots overlap more
/// than needed, so the span widens (t_ratio shrinks); below target the
/// span contracts.  The per-step factor is clamped to [1/2, 2] so one
/// noisy window cannot blow the ladder up, and the result to
/// [1e-6, 0.999].  Pure — the determinism contract is untouched.
double respace_t_ratio(double t_ratio, double acceptance,
                       double target_acceptance);

/// The island-model strategy.  replicas() is the sum of per-island replica
/// counts, so the caller binds one chip clone per global replica index and
/// Archipelago partitions the flat problem span into per-island sub-spans
/// (which keeps the SoA QuboReplicaBatch fast path working unchanged).
class Archipelago final : public Strategy {
 public:
  explicit Archipelago(const ArchipelagoParams& params);

  std::size_t replicas() const override;
  SearchResult run(std::span<SaProblem* const> problems,
                   const qubo::BitVector& x0, const SaParams& sa,
                   std::uint64_t seed, const Executor& executor,
                   const util::CancelToken& cancel) const override;

  const ArchipelagoParams& params() const { return params_; }
  /// The resolved search kind island `island` runs (roster cycled).
  const IslandSearch& island_search(std::size_t island) const {
    return island_search_[island];
  }

 private:
  ArchipelagoParams params_;
  std::vector<IslandSearch> island_search_;  ///< one resolved entry per island
  std::vector<std::size_t> island_offset_;   ///< replica prefix sums, size N+1
};

}  // namespace hycim::anneal
