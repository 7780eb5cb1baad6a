#include "anneal/island.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "anneal/archipelago.hpp"
#include "util/fault_injector.hpp"

namespace hycim::anneal {

namespace {

// Stream ids for a ladder's non-replica randomness, forked from the
// island's stream root.  Replica walks use ids 0..total-1 from the run
// seed; these live far above any realistic replica count.
constexpr std::uint64_t kExchangeStream = 0x45584348ULL;     // "EXCH"
constexpr std::uint64_t kCalibrationStream = 0x43414C42ULL;  // "CALB"

// Exchange proposals a ladder must accumulate before its acceptance
// estimate is allowed to respace it.
constexpr std::size_t kMinRespaceWindow = 4;

}  // namespace

Island::Island(std::span<SaProblem* const> problems,
               std::size_t first_replica, const TemperingParams* ladder,
               const qubo::BitVector& x0, const SaParams& sa,
               std::uint64_t seed, std::uint64_t stream_root,
               bool record_trace, const Executor& executor)
    : first_(first_replica),
      seed_(seed),
      iterations_(sa.iterations),
      interval_(ladder ? ladder->exchange_interval : 0),
      record_trace_(record_trace),
      replica_at_slot_(problems.size()),
      replica_exchanges_(problems.size(), 0),
      walks_(problems.size()) {
  // Replica r starts on slot r; exchanges move temperature labels, never
  // configurations, so a swap is O(1) bookkeeping.
  std::iota(replica_at_slot_.begin(), replica_at_slot_.end(), std::size_t{0});
  if (ladder == nullptr) {
    walks_[0].emplace(*problems[0], x0, sa, util::fork_stream(seed, first_));
    return;
  }
  // One ladder top shared by every replica: explicit t0, or the standard
  // mean-|ΔE| calibration on replica 0's problem from the island's own
  // stream (trials are pure, so the extra reset is harmless).
  t_hot_ = sa.t0;
  if (t_hot_ <= 0.0) {
    problems[0]->reset(x0);
    util::Rng calibration_rng =
        util::fork_stream(stream_root, kCalibrationStream);
    t_hot_ = calibrate_t0(*problems[0], calibration_rng);
  }
  t_ratio_ = ladder->t_ratio;
  slot_temperature_.resize(problems.size());
  slot_beta_.resize(problems.size());
  rebuild_ladder();
  replica_energy_.resize(problems.size());
  exchange_rng_ = util::fork_stream(stream_root, kExchangeStream);
  // Each task touches only its own slot — construction order cannot leak
  // into results.
  executor(problems.size(), [&](std::size_t r) {
    walks_[r].emplace(*problems[r], x0, sa,
                      util::fork_stream(seed, first_ + r),
                      slot_temperature_[r]);
  });
}

void Island::rebuild_ladder() {
  const std::size_t slots = slot_temperature_.size();
  for (std::size_t s = 0; s < slots; ++s) {
    slot_temperature_[s] =
        t_hot_ * std::pow(t_ratio_, static_cast<double>(s) /
                                        static_cast<double>(slots - 1));
    slot_beta_[s] = 1.0 / slot_temperature_[s];
  }
}

void Island::retarget() {
  for (std::size_t s = 0; s < walks_.size(); ++s) {
    walks_[replica_at_slot_[s]]->set_temperature(slot_temperature_[s]);
  }
}

void Island::advance(std::size_t r) {
  // The fault seam draws no walk randomness, so an armed-but-silent
  // injector is bit-identical to a disarmed one.
  util::fault_injector().maybe_fault(util::FaultSite::kReplicaSegment, seed_,
                                     first_ + r, segment_);
  walks_[r]->run_to(segment_end_);
}

bool Island::step(std::size_t target, const Executor& executor) {
  const std::size_t next_barrier = (barrier_ + 1) * interval_;
  segment_end_ = is_ladder() ? std::min(target, next_barrier) : target;
  segment_ = segments_++;
  // A single walk has no barrier to hold: it advances inline, no fan.
  if (!is_ladder()) {
    advance(0);
    return false;
  }
  // Capturing `this` alone keeps the task inside std::function's inline
  // buffer, so a barrier allocates nothing.
  executor(walks_.size(), [this](std::size_t r) { advance(r); });
  // No barrier after the final segment.
  if (segment_end_ < next_barrier || segment_end_ >= iterations_) {
    return false;
  }
  // Every walk hit its proposal cap: no further moves are possible, so
  // more barriers would only shuffle temperature labels.
  if (exhausted()) return false;
  for (std::size_t r = 0; r < walks_.size(); ++r) {
    replica_energy_[r] = walks_[r]->current_energy();
  }

  // Counters are attributed from the per-barrier events, so they stay
  // exact when the trace itself is not recorded (record_trace bounds
  // memory, never accuracy).
  barrier_events_.clear();
  const std::size_t accepted =
      exchange_step(barrier_, slot_beta_, replica_energy_, replica_at_slot_,
                    exchange_rng_, &barrier_events_);
  exchanges_accepted_ += accepted;
  window_accepted_ += accepted;
  exchanges_proposed_ += barrier_events_.size();
  window_proposed_ += barrier_events_.size();
  for (const ExchangeEvent& e : barrier_events_) {
    if (!e.accepted) continue;
    ++replica_exchanges_[e.replica_lo];
    ++replica_exchanges_[e.replica_hi];
  }
  if (record_trace_) {
    exchange_trace_.insert(exchange_trace_.end(), barrier_events_.begin(),
                           barrier_events_.end());
  }
  retarget();
  ++barrier_;
  return true;
}

bool Island::exhausted() const {
  return std::all_of(walks_.begin(), walks_.end(),
                     [](const std::optional<SaWalk>& w) {
                       return w->exhausted();
                     });
}

std::size_t Island::best_replica() const {
  std::size_t best = 0;
  for (std::size_t r = 1; r < walks_.size(); ++r) {
    if (walks_[r]->result().best_energy < walks_[best]->result().best_energy) {
      best = r;
    }
  }
  return best;
}

std::size_t Island::worst_replica() const {
  std::size_t worst = 0;
  for (std::size_t r = 1; r < walks_.size(); ++r) {
    if (walks_[r]->current_energy() > walks_[worst]->current_energy()) {
      worst = r;
    }
  }
  return worst;
}

void Island::reseed(const qubo::BitVector& x) {
  for (std::optional<SaWalk>& w : walks_) w->reseed(x);
}

bool Island::respace(double target_acceptance) {
  if (window_proposed_ < kMinRespaceWindow) return false;
  const double acceptance = static_cast<double>(window_accepted_) /
                            static_cast<double>(window_proposed_);
  const double next = respace_t_ratio(t_ratio_, acceptance, target_acceptance);
  window_proposed_ = 0;
  window_accepted_ = 0;
  if (std::abs(next - t_ratio_) <= 1e-12) return false;
  t_ratio_ = next;
  rebuild_ladder();
  retarget();
  ++respaces_;
  return true;
}

IslandStats Island::stats() const {
  IslandStats stats;
  stats.replicas = walks_.size();
  stats.search_kind = is_ladder() ? 1 : 0;  // the IslandSearch index
  for (const std::optional<SaWalk>& w : walks_) {
    stats.evaluated += w->result().evaluated;
    stats.proposed += w->result().proposed;
    stats.accepted += w->result().accepted;
  }
  stats.best_energy = walks_[best_replica()]->result().best_energy;
  stats.exchanges_proposed = exchanges_proposed_;
  stats.exchanges_accepted = exchanges_accepted_;
  stats.respaces = respaces_;
  stats.t_ratio = t_ratio_;
  return stats;
}

void Island::collect(std::span<Island> islands, bool island_stats,
                     SearchResult& out) {
  const SaWalk* best = nullptr;
  std::size_t best_island = 0;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    const Island& island = islands[i];
    for (std::size_t r = 0; r < island.walks_.size(); ++r) {
      const SaResult& walk = island.walks_[r]->result();
      ReplicaCounters& counters = out.replicas.emplace_back();
      counters.evaluated = walk.evaluated;
      counters.proposed = walk.proposed;
      counters.accepted = walk.accepted;
      counters.rejected_infeasible = walk.rejected_infeasible;
      counters.rejected_metropolis = walk.rejected_metropolis;
      counters.exchanges_accepted = island.replica_exchanges_[r];
      counters.best_energy = walk.best_energy;
      counters.final_energy = island.walks_[r]->current_energy();
      out.sa.evaluated += walk.evaluated;
      out.sa.proposed += walk.proposed;
      out.sa.accepted += walk.accepted;
      out.sa.rejected_infeasible += walk.rejected_infeasible;
      out.sa.rejected_metropolis += walk.rejected_metropolis;
      if (best == nullptr || walk.best_energy < best->result().best_energy) {
        best = &*island.walks_[r];
        best_island = i;
      }
    }
    out.exchanges_proposed += island.exchanges_proposed_;
    out.exchanges_accepted += island.exchanges_accepted_;
    // The flat trace globalizes replica ids; barrier and slot stay
    // island-local (each ladder runs at its own cadence).
    for (ExchangeEvent e : island.exchange_trace_) {
      e.replica_lo += island.first_;
      e.replica_hi += island.first_;
      out.exchange_trace.push_back(e);
    }
    if (island_stats) out.islands.push_back(island.stats());
  }
  out.sa.best_x = best->result().best_x;
  out.sa.best_energy = best->result().best_energy;
  // The "answer" state: the best island's coldest slot (its single walk,
  // or the tempered chain's cold replica).
  Island& winner = islands[best_island];
  const SaResult answer =
      winner.walk(winner.replica_at_slot_.back()).take_result();
  out.sa.final_x = answer.final_x;
  out.sa.final_energy = answer.final_energy;
}

}  // namespace hycim::anneal
