#include "anneal/archipelago.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "anneal/island.hpp"
#include "util/fault_injector.hpp"

namespace hycim::anneal {

namespace {

// Stream ids for the archipelago's non-replica randomness.  Replica walks
// use ids 0..total-1 (the contract every search shares); the migration
// stream and the per-island seed roots live far above any realistic
// replica count.  Each island's exchange/calibration streams fork from its
// own island seed, so they can never collide with another island's.
constexpr std::uint64_t kIslandSeedStream = 0x49534C44ULL;  // "ISLD"
constexpr std::uint64_t kMigrationStream = 0x4D494752ULL;   // "MIGR"

std::size_t island_width(const IslandSearch& search) {
  const auto* tempering = std::get_if<TemperingParams>(&search);
  return tempering ? tempering->replicas : 1;
}

/// The archipelago's own per-island barrier bookkeeping (the ladder's
/// lives in the Island).
struct Ledger {
  double best_seen = std::numeric_limits<double>::infinity();
  std::size_t stagnant = 0;  ///< barriers without improvement
  std::size_t migrants_in = 0;
  std::size_t migrants_out = 0;
  std::size_t resamples = 0;
};

}  // namespace

const IslandSearch& island_search(const ArchipelagoParams& params,
                                  std::size_t island) {
  static const IslandSearch kDefault{TemperingParams{}};
  if (params.roster.empty()) return kDefault;
  return params.roster[island % params.roster.size()];
}

const char* topology_name(MigrationTopology topology) {
  switch (topology) {
    case MigrationTopology::kRing:
      return "ring";
    case MigrationTopology::kFullyConnected:
      return "fully_connected";
    case MigrationTopology::kNone:
      return "none";
  }
  return "unknown";
}

void validate(const ArchipelagoParams& params) {
  if (params.islands < 2) {
    throw std::invalid_argument(
        "ArchipelagoParams.islands must be >= 2 (one island is just its "
        "sub-strategy)");
  }
  if (params.migration_interval == 0) {
    throw std::invalid_argument(
        "ArchipelagoParams.migration_interval must be >= 1");
  }
  switch (params.topology) {
    case MigrationTopology::kRing:
    case MigrationTopology::kFullyConnected:
    case MigrationTopology::kNone:
      break;
    default:
      throw std::invalid_argument(
          "ArchipelagoParams.topology is not a known MigrationTopology");
  }
  if (!(params.target_acceptance > 0.0) || !(params.target_acceptance < 1.0)) {
    throw std::invalid_argument(
        "ArchipelagoParams.target_acceptance must be in (0, 1)");
  }
  for (const IslandSearch& entry : params.roster) {
    if (const auto* tempering = std::get_if<TemperingParams>(&entry)) {
      validate(*tempering);
    }
  }
}

std::size_t total_replicas(const ArchipelagoParams& params) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < params.islands; ++i) {
    total += island_width(island_search(params, i));
  }
  return total;
}

std::size_t migration_step(std::size_t epoch, MigrationTopology topology,
                           std::span<const double> island_best,
                           std::span<const double> island_worst,
                           util::Rng& rng,
                           std::span<std::size_t> accepted_source,
                           std::vector<MigrationEvent>* trace) {
  const std::size_t islands = island_best.size();
  for (std::size_t d = 0; d < islands; ++d) accepted_source[d] = kNoMigrant;
  if (topology == MigrationTopology::kNone || islands < 2) return 0;
  std::size_t accepted_count = 0;
  // Serial ascending-destination sweep: the fully-connected donor draw
  // consumes exactly one uniform per destination, so the stream — and with
  // it the whole migration schedule — is independent of replica scheduling.
  for (std::size_t d = 0; d < islands; ++d) {
    std::size_t s;
    if (topology == MigrationTopology::kRing) {
      s = (d + islands - 1) % islands;
    } else {
      s = rng.index(islands - 1);
      if (s >= d) ++s;  // uniform over the other islands
    }
    // Replace-worst policy: the donor's elite displaces the destination's
    // worst replica iff it strictly improves on it.
    const bool accepted = island_best[s] < island_worst[d];
    if (accepted) {
      accepted_source[d] = s;
      ++accepted_count;
    }
    if (trace) {
      trace->push_back(
          {epoch, s, d, island_best[s], island_worst[d], accepted});
    }
  }
  return accepted_count;
}

double respace_t_ratio(double t_ratio, double acceptance,
                       double target_acceptance) {
  const double factor = std::clamp(acceptance / target_acceptance, 0.5, 2.0);
  const double span = std::max(-std::log(t_ratio), 1e-3);
  return std::clamp(std::exp(-span * factor), 1e-6, 0.999);
}

SearchResult run_archipelago(const ArchipelagoParams& params,
                             std::span<SaProblem* const> problems,
                             const qubo::BitVector& x0, const SaParams& sa,
                             std::uint64_t seed, const Executor& executor,
                             const util::CancelToken& cancel) {
  const std::size_t island_count = params.islands;
  std::vector<std::size_t> offset(island_count + 1, 0);
  for (std::size_t i = 0; i < island_count; ++i) {
    offset[i + 1] = offset[i] + island_width(island_search(params, i));
  }

  // Construction fans islands out, and each ladder island fans its replica
  // walk constructions (the expensive problem rebind) through the same
  // executor — the nested group joins the ambient budget.  Every stream is
  // forked before any scheduling decision can observe it.
  std::vector<std::optional<Island>> built(island_count);
  executor(island_count, [&](std::size_t i) {
    built[i].emplace(problems.subspan(offset[i], offset[i + 1] - offset[i]),
                     offset[i],
                     std::get_if<TemperingParams>(&island_search(params, i)),
                     x0, sa, seed, util::fork_seed(seed, kIslandSeedStream + i),
                     params.record_trace, executor);
  });
  std::vector<Island> islands;
  islands.reserve(island_count);
  for (std::optional<Island>& island : built) {
    islands.push_back(std::move(*island));
  }

  SearchResult out;
  std::vector<Ledger> ledgers(island_count);
  util::Rng migration_rng = util::fork_stream(seed, kMigrationStream);
  std::vector<double> island_best(island_count);
  std::vector<double> island_worst(island_count);
  std::vector<std::size_t> best_replica(island_count);
  std::vector<std::size_t> worst_replica(island_count);
  std::vector<std::size_t> migrant_source(island_count);
  std::vector<MigrationEvent> epoch_events;
  std::vector<qubo::BitVector> migrant_x(island_count);
  for (std::size_t epoch = 0;; ++epoch) {
    // Migration barriers double as cancellation checkpoints: stopping here
    // leaves every island at a consistent epoch boundary, so the partial
    // aggregate below is the archipelago's any-time best.  Neither the
    // token nor the fault seam draws walk randomness, so an armed-but-
    // silent run is bit-identical to an unarmed one.
    out.stopped = cancel.should_stop();
    if (out.stopped != util::StopReason::kNone) break;
    // One fan per epoch; island-local state only — islands are independent
    // between migration barriers, so they may run concurrently.
    const std::size_t target =
        std::min(sa.iterations, (epoch + 1) * params.migration_interval);
    executor(island_count, [&](std::size_t i) {
      while (islands[i].step(target, executor)) {
      }
    });
    if (target >= sa.iterations) break;
    // Every walk hit its proposal cap: no further moves are possible, so
    // additional barriers would only shuffle configurations around.
    if (std::all_of(islands.begin(), islands.end(),
                    [](const Island& island) { return island.exhausted(); })) {
      break;
    }
    util::fault_injector().maybe_fault(util::FaultSite::kMigrationBarrier,
                                       seed, epoch);

    // --- The serial migration barrier, in island order. ---
    for (std::size_t i = 0; i < island_count; ++i) {
      best_replica[i] = islands[i].best_replica();
      worst_replica[i] = islands[i].worst_replica();
      island_best[i] = islands[i].walk(best_replica[i]).result().best_energy;
      island_worst[i] = islands[i].walk(worst_replica[i]).current_energy();
    }

    // 1. Migration.  Decisions and injected configurations both come from
    // the pre-barrier snapshot (donor elites are copied before any reseed),
    // so the outcome is order-independent and deterministic.
    if (params.topology != MigrationTopology::kNone) {
      epoch_events.clear();
      out.migrations_accepted +=
          migration_step(epoch, params.topology, island_best, island_worst,
                         migration_rng, migrant_source, &epoch_events);
      out.migrations_proposed += epoch_events.size();
      if (params.record_trace) {
        out.migration_trace.insert(out.migration_trace.end(),
                                   epoch_events.begin(), epoch_events.end());
      }
      for (std::size_t d = 0; d < island_count; ++d) {
        const std::size_t s = migrant_source[d];
        if (s == kNoMigrant) continue;
        migrant_x[d] = islands[s].walk(best_replica[s]).result().best_x;
      }
      for (std::size_t d = 0; d < island_count; ++d) {
        const std::size_t s = migrant_source[d];
        if (s == kNoMigrant) continue;
        islands[d].walk(worst_replica[d]).reseed(migrant_x[d]);
        ++ledgers[d].migrants_in;
        ++ledgers[s].migrants_out;
      }
    }

    // 2. Stagnation accounting and population-annealing resampling, on the
    // pre-migration island bests (an adopted migrant is not the island's
    // own progress).  The global-best island — and any island tied with
    // it — is never killed.
    std::size_t global_best_island = 0;
    for (std::size_t i = 1; i < island_count; ++i) {
      if (island_best[i] < island_best[global_best_island]) {
        global_best_island = i;
      }
    }
    for (std::size_t i = 0; i < island_count; ++i) {
      if (island_best[i] < ledgers[i].best_seen) {
        ledgers[i].best_seen = island_best[i];
        ledgers[i].stagnant = 0;
      } else {
        ++ledgers[i].stagnant;
      }
    }
    if (params.stagnation_epochs > 0) {
      const double elite_energy = island_best[global_best_island];
      qubo::BitVector elite_x;
      for (std::size_t i = 0; i < island_count; ++i) {
        if (i == global_best_island) continue;
        if (!(island_best[i] > elite_energy)) continue;
        if (ledgers[i].stagnant < params.stagnation_epochs) continue;
        if (elite_x.empty()) {
          elite_x = islands[global_best_island]
                        .walk(best_replica[global_best_island])
                        .result()
                        .best_x;
        }
        islands[i].reseed(elite_x);
        ledgers[i].stagnant = 0;
        ledgers[i].best_seen = elite_energy;
        ++ledgers[i].resamples;
        ++out.resamples;
        if (params.record_trace) {
          out.resample_trace.push_back(
              {epoch, i, global_best_island, island_best[i], elite_energy});
        }
      }
    }

    // 3. Adaptive ladder respacing: a pure function of each ladder's
    // measured exchange acceptance since its last respace.
    if (params.adapt_ladder) {
      for (Island& island : islands) {
        if (island.respace(params.target_acceptance)) ++out.respaces;
      }
    }
  }

  Island::collect(islands, /*island_stats=*/true, out);
  for (std::size_t i = 0; i < island_count; ++i) {
    out.islands[i].migrants_in = ledgers[i].migrants_in;
    out.islands[i].migrants_out = ledgers[i].migrants_out;
    out.islands[i].resamples = ledgers[i].resamples;
  }
  return out;
}

}  // namespace hycim::anneal
