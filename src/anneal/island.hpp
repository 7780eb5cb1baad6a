// One island of the ensemble engine that replica exchange and the
// archipelago both run on.
//
// An island is either one cooled SA walk or a replica-exchange ladder: R
// walks at a static geometric temperature ladder on R clones of one
// programmed chip (see strategy.hpp for why).  Every `exchange_interval`
// QUBO computations the walks synchronize and adjacent ladder slots
// (even/odd pairings alternating per barrier) propose to swap their
// temperature labels with acceptance min(1, exp((β_a − β_b)(E_a − E_b)))
// — configurations stay put, so a swap is O(1) bookkeeping instead of a
// state rebind.  Replica exchange is one ladder island stepped to the end
// of its budget; an archipelago is N islands plus its migration barrier
// (see archipelago.hpp).
//
// Determinism contract: replica g (the global replica index across every
// island of a run) draws its proposals from util::fork_stream(seed, g);
// a ladder's T_hot calibration and its serial exchange stream fork from
// the island's stream root; barriers are synchronization points.  An
// island's result is therefore a pure function of (problems, x0, params,
// seed, stream root), bit-identical for any Executor.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "anneal/sa_engine.hpp"
#include "anneal/strategy.hpp"
#include "qubo/qubo_matrix.hpp"
#include "util/rng.hpp"

namespace hycim::anneal {

class Island {
 public:
  /// Binds one walk per problem: replica r of the island is global replica
  /// `first_replica + r` and walks problems[r].  A null `ladder` makes a
  /// single cooled walk (problems.size() == 1); otherwise the island is a
  /// ladder of ladder->replicas walks whose T_hot is sa.t0, or calibrated
  /// on problems[0] from `stream_root`'s calibration stream when 0.  A
  /// ladder fans its walk construction (the expensive problem rebind)
  /// through `executor`; a single walk is built inline.  `record_trace`
  /// keeps the exchange trace (counters are exact either way).
  Island(std::span<SaProblem* const> problems, std::size_t first_replica,
         const TemperingParams* ladder, const qubo::BitVector& x0,
         const SaParams& sa, std::uint64_t seed, std::uint64_t stream_root,
         bool record_trace, const Executor& executor);

  /// Runs one segment: every walk advances to the next exchange barrier or
  /// `target` (<= sa.iterations), whichever comes first.  Reaching a
  /// barrier short of the budget holds it — one Metropolis exchange sweep,
  /// then the walks retarget their slot temperatures — and returns true:
  /// call again to continue toward `target`.  Returns false otherwise
  /// (paused at `target`, budget spent, or every walk at its proposal
  /// cap).  A ladder fans its segment through `executor`; a single walk
  /// runs inline.  Each replica segment is a util::FaultSite::
  /// kReplicaSegment seam keyed by (seed, global replica, segment count).
  bool step(std::size_t target, const Executor& executor);

  /// Whether every walk hit its proposal cap.
  bool exhausted() const;
  SaWalk& walk(std::size_t r) { return *walks_[r]; }
  /// The replica with the lowest best-so-far energy (ties: lowest index).
  std::size_t best_replica() const;
  /// The replica with the highest current energy (ties: lowest index).
  std::size_t worst_replica() const;
  /// Reseats every walk on `x` (population-annealing resampling).
  void reseed(const qubo::BitVector& x);
  /// Adaptive ladder: once the exchange proposals since the last call
  /// reach a minimum window, respaces the ladder from their acceptance
  /// rate toward `target_acceptance` (see respace_t_ratio) and restarts
  /// the window.  Returns whether the ladder moved; a single walk never
  /// respaces.
  bool respace(double target_acceptance);

  /// Aggregates `islands` (in order) into `out`: per-replica counters in
  /// global replica order, summed walk counters, exchange totals and the
  /// trace with global replica ids, the ensemble best (ties: lowest global
  /// replica), and the final state of the coldest slot of the island
  /// holding it.  Appends one SearchTelemetry::islands row per island when
  /// `island_stats` is set.  Call once, after the last step.
  static void collect(std::span<Island> islands, bool island_stats,
                      SearchResult& out);

 private:
  bool is_ladder() const { return interval_ != 0; }
  /// Runs walk r to the current segment's end (one executor task).
  void advance(std::size_t r);
  void rebuild_ladder();
  /// Points every walk at its slot's (possibly new) temperature.
  void retarget();
  /// This island's row of SearchTelemetry::islands, without the
  /// archipelago's migration and resampling counters.
  IslandStats stats() const;

  std::size_t first_;     ///< global index of replica 0
  std::uint64_t seed_;    ///< run seed: fault coordinates
  std::size_t iterations_;
  std::size_t interval_;  ///< exchange cadence; 0 for a single walk
  bool record_trace_;
  double t_hot_ = 0.0;
  double t_ratio_ = 0.0;  ///< 0 for a single walk
  std::vector<double> slot_temperature_;
  std::vector<double> slot_beta_;
  std::vector<std::size_t> replica_at_slot_;    ///< island-local ids
  std::vector<std::size_t> replica_exchanges_;  ///< accepted swaps per id
  std::vector<ExchangeEvent> exchange_trace_;   ///< local ids
  std::vector<ExchangeEvent> barrier_events_;
  std::vector<double> replica_energy_;
  util::Rng exchange_rng_;
  std::size_t barrier_ = 0;
  std::size_t segments_ = 0;
  std::size_t segment_ = 0;      ///< index of the segment being run
  std::size_t segment_end_ = 0;  ///< its evaluated-count target
  std::size_t exchanges_proposed_ = 0;
  std::size_t exchanges_accepted_ = 0;
  std::size_t window_proposed_ = 0;  ///< since the last respace
  std::size_t window_accepted_ = 0;
  std::size_t respaces_ = 0;
  std::vector<std::optional<SaWalk>> walks_;
};

}  // namespace hycim::anneal
