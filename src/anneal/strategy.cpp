#include "anneal/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "anneal/archipelago.hpp"
#include "anneal/island.hpp"
#include "util/fault_injector.hpp"

namespace hycim::anneal {

void validate(const TemperingParams& params) {
  if (params.replicas < 2) {
    throw std::invalid_argument(
        "TemperingParams.replicas must be >= 2 (one replica is plain SA)");
  }
  if (params.exchange_interval == 0) {
    throw std::invalid_argument(
        "TemperingParams.exchange_interval must be >= 1");
  }
  if (!(params.t_ratio > 0.0) || params.t_ratio > 1.0) {
    throw std::invalid_argument(
        "TemperingParams.t_ratio must be in (0, 1]");
  }
}

void run_serial(std::size_t count, const Task& task) {
  for (std::size_t i = 0; i < count; ++i) task(i);
}

std::size_t exchange_step(std::size_t barrier,
                          std::span<const double> slot_beta,
                          std::span<const double> replica_energy,
                          std::span<std::size_t> replica_at_slot,
                          util::Rng& rng, std::vector<ExchangeEvent>* trace) {
  const std::size_t slots = replica_at_slot.size();
  std::size_t accepted_count = 0;
  // Alternating parity pairs the whole ladder over two barriers; the serial
  // ascending-slot sweep with one uniform per pair is what keeps the trace
  // independent of replica scheduling.
  for (std::size_t s = barrier % 2; s + 1 < slots; s += 2) {
    const std::size_t lo = replica_at_slot[s];
    const std::size_t hi = replica_at_slot[s + 1];
    // Swapping configurations between the two slots multiplies the joint
    // Boltzmann weight by exp((β_s − β_{s+1})(E_lo − E_hi)).
    const double delta = (slot_beta[s] - slot_beta[s + 1]) *
                         (replica_energy[lo] - replica_energy[hi]);
    const bool accepted = delta >= 0.0 || rng.uniform() < std::exp(delta);
    if (accepted) {
      replica_at_slot[s] = hi;
      replica_at_slot[s + 1] = lo;
      ++accepted_count;
    }
    if (trace) trace->push_back({barrier, s, lo, hi, accepted});
  }
  return accepted_count;
}

namespace {

// Cancellation checkpoint granularity (QUBO computations) for the
// single-walk path, which has no exchange barriers of its own.  SaWalk is
// resumable, so segmenting a run this way is bit-identical to one
// run_to() call.
constexpr std::size_t kCancelSegment = 256;

/// Ladder events one replica-exchange run records: barriers × pairs.
std::size_t ladder_events(const TemperingParams& ladder,
                          std::size_t iterations) {
  return (iterations / ladder.exchange_interval) * (ladder.replicas / 2);
}

/// The classic single cooled walk, simulated_annealing() on Rng(seed), run
/// in resumable segments so the token (and the fault seam) get a say
/// between them.  run_to() is idempotent and resumable, so an unarmed or
/// never-firing token produces exactly the bits simulated_annealing()
/// would.
SearchResult run_single(SaProblem& problem, const qubo::BitVector& x0,
                        const SaParams& sa, std::uint64_t seed,
                        const util::CancelToken& cancel) {
  SaParams params = sa;
  params.seed = seed;
  SearchResult out;
  util::FaultInjector& faults = util::fault_injector();
  SaWalk walk(problem, x0, params, util::Rng(params.seed));
  for (std::size_t segment = 0;; ++segment) {
    out.stopped = cancel.should_stop();
    if (out.stopped != util::StopReason::kNone) break;
    if (walk.evaluated() >= params.iterations || walk.exhausted()) break;
    faults.maybe_fault(util::FaultSite::kReplicaSegment, seed, 0, segment);
    walk.run_to(
        std::min(params.iterations, walk.evaluated() + kCancelSegment));
  }
  out.sa = walk.take_result();
  return out;
}

/// Replica exchange: one ladder island stepped to the end of the budget.
/// Exchange barriers double as cancellation checkpoints: stopping there
/// leaves every walk at a consistent segment boundary, so the aggregate is
/// the ensemble's any-time best.
SearchResult run_ladder(const TemperingParams& params,
                        std::span<SaProblem* const> problems,
                        const qubo::BitVector& x0, const SaParams& sa,
                        std::uint64_t seed, const Executor& executor,
                        const util::CancelToken& cancel) {
  Island ladder(problems, 0, &params, x0, sa, seed, /*stream_root=*/seed,
                params.record_trace, executor);
  SearchResult out;
  do {
    out.stopped = cancel.should_stop();
    if (out.stopped != util::StopReason::kNone) break;
  } while (ladder.step(sa.iterations, executor));
  Island::collect({&ladder, 1}, /*island_stats=*/false, out);
  return out;
}

}  // namespace

std::size_t replicas_of(const SearchParams& search) {
  if (const auto* tempering = std::get_if<TemperingParams>(&search)) {
    validate(*tempering);
    return tempering->replicas;
  }
  if (const auto* archipelago = std::get_if<ArchipelagoParams>(&search)) {
    validate(*archipelago);
    return total_replicas(*archipelago);
  }
  return 1;
}

std::size_t trace_events(const SearchParams& search, std::size_t iterations) {
  if (const auto* tempering = std::get_if<TemperingParams>(&search)) {
    return ladder_events(*tempering, iterations);
  }
  const auto* archipelago = std::get_if<ArchipelagoParams>(&search);
  if (archipelago == nullptr) return 0;
  // One migration proposal per island per epoch, plus each ladder island's
  // own exchanges.
  std::size_t events =
      (iterations / archipelago->migration_interval) * archipelago->islands;
  for (std::size_t i = 0; i < archipelago->islands; ++i) {
    if (const auto* ladder =
            std::get_if<TemperingParams>(&island_search(*archipelago, i))) {
      events += ladder_events(*ladder, iterations);
    }
  }
  return events;
}

SearchResult run_search(const SearchParams& search,
                        std::span<SaProblem* const> problems,
                        const qubo::BitVector& x0, const SaParams& sa,
                        std::uint64_t seed, const Executor& executor,
                        const util::CancelToken& cancel) {
  if (problems.size() != replicas_of(search)) {
    throw std::invalid_argument(
        "run_search: problems.size() != replicas_of(search)");
  }
  validate(sa);
  for (SaProblem* p : problems) {
    if (p == nullptr) throw std::invalid_argument("run_search: null problem");
  }
  // Checked before a ladder's calibration reset touches x0 — the walks'
  // own constructors validate too, but only after that reset would have
  // already indexed out of bounds.
  if (x0.size() != problems[0]->num_bits()) {
    throw std::invalid_argument("run_search: x0 size mismatch");
  }
  if (const auto* tempering = std::get_if<TemperingParams>(&search)) {
    return run_ladder(*tempering, problems, x0, sa, seed, executor, cancel);
  }
  if (const auto* archipelago = std::get_if<ArchipelagoParams>(&search)) {
    return run_archipelago(*archipelago, problems, x0, sa, seed, executor,
                           cancel);
  }
  return run_single(*problems[0], x0, sa, seed, cancel);
}

}  // namespace hycim::anneal
