#include "anneal/sa_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hycim::anneal {

bool SaProblem::trial_feasible(const Move& /*m*/) { return true; }

void validate(const SaParams& params) {
  if (params.swap_probability < 0.0 || params.swap_probability > 1.0) {
    throw std::invalid_argument(
        "SaParams.swap_probability must be in [0, 1]");
  }
  if (!(params.t_end_frac > 0.0)) {
    throw std::invalid_argument("SaParams.t_end_frac must be > 0");
  }
}

double calibrate_t0(SaProblem& problem, util::Rng& rng) {
  const std::size_t n = problem.num_bits();
  const std::size_t samples = std::min<std::size_t>(64, n);
  double acc = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double d = std::abs(problem.trial_delta(Move::flip(rng.index(n))));
    if (d > 0) {
      acc += d;
      ++count;
    }
  }
  if (count == 0) return 1.0;
  return std::max(1e-9, acc / static_cast<double>(count));
}

SaWalk::SaWalk(SaProblem& problem, const qubo::BitVector& x0,
               const SaParams& params, util::Rng rng)
    : problem_(problem), params_(params), rng_(std::move(rng)) {
  init(x0);
  // Same order as the historical engine: reset first, then T0 calibration
  // consuming this walk's rng, then the schedule — single walks are
  // bit-identical to the pre-SaWalk implementation.
  const double t0 = params_.t0 > 0 ? params_.t0 : calibrate_t0(problem_, rng_);
  const double t_end = std::max(1e-12, t0 * params_.t_end_frac);
  schedule_.emplace(params_.schedule, params_.iterations, t0, t_end);
}

SaWalk::SaWalk(SaProblem& problem, const qubo::BitVector& x0,
               const SaParams& params, util::Rng rng, double temperature)
    : problem_(problem), params_(params), rng_(std::move(rng)) {
  init(x0);
  set_temperature(temperature);
}

void SaWalk::init(const qubo::BitVector& x0) {
  validate(params_);
  if (problem_.num_bits() == 0) {
    throw std::invalid_argument("SaWalk: the problem has no variables");
  }
  if (x0.size() != problem_.num_bits()) {
    throw std::invalid_argument("SaWalk: x0 size mismatch");
  }
  current_ = problem_.reset(x0);
  result_.best_x = x0;
  result_.best_energy = current_;
  if (params_.record_trace) result_.trace.reserve(params_.iterations);
  proposal_cap_ = params_.max_proposals > 0 ? params_.max_proposals
                                            : params_.iterations * 100;
  swaps_enabled_ =
      params_.swap_probability > 0.0 && problem_.supports_swaps();
  // Swap proposals need a uniformly random (selected, unselected) index
  // pair; the sampler keeps the ascending ones/zeros lists against commits
  // instead of rebuilding them per proposal, so walks are bit-identical.
  if (swaps_enabled_) sampler_.reset(problem_.state());
}

void SaWalk::set_temperature(double temperature) {
  if (!(temperature > 0.0)) {
    throw std::invalid_argument("SaWalk: temperature must be > 0");
  }
  fixed_temperature_ = temperature;
}

double SaWalk::temperature() const {
  return temperature_at(result_.evaluated);
}

double SaWalk::temperature_at(std::size_t step) const {
  return schedule_ ? schedule_->temperature(step) : fixed_temperature_;
}

void SaWalk::reseed(const qubo::BitVector& x) {
  if (x.size() != problem_.num_bits()) {
    throw std::invalid_argument("SaWalk::reseed: x size mismatch");
  }
  current_ = problem_.reset(x);
  if (current_ < result_.best_energy) {
    result_.best_energy = current_;
    result_.best_x = x;
  }
  if (swaps_enabled_) sampler_.reset(problem_.state());
}

bool SaWalk::exhausted() const { return result_.proposed >= proposal_cap_; }

void SaWalk::run_to(std::size_t evaluated_target) {
  const std::size_t n = problem_.num_bits();
  // The iteration index (and hence the temperature, in schedule mode)
  // advances per QUBO computation; filtered configurations loop straight
  // back to the move generator (paper Fig. 6(b)).
  while (result_.evaluated < evaluated_target &&
         result_.proposed < proposal_cap_) {
    ++result_.proposed;

    // Choose a move: swap (one-in/one-out) or single-bit flip.
    bool is_swap = false;
    std::size_t bit = 0, bit_out = 0;
    if (swaps_enabled_ && rng_.uniform() < params_.swap_probability) {
      if (sampler_.ones() != 0 && sampler_.zeros() != 0) {
        is_swap = true;
        bit_out = sampler_.kth_one(rng_.index(sampler_.ones()));
        bit = sampler_.kth_zero(rng_.index(sampler_.zeros()));
      }
    }
    if (!is_swap) bit = rng_.index(n);
    const Move move = is_swap ? Move::swap(bit_out, bit) : Move::flip(bit);

    if (!problem_.trial_feasible(move)) {
      // Filtered out: no QUBO computation, no temperature update.
      ++result_.rejected_infeasible;
      continue;
    }
    // Only an uphill move reads this step's temperature.
    const std::size_t step = result_.evaluated++;
    const double d = problem_.trial_delta(move);
    const bool accept =
        d <= 0.0 || rng_.uniform() < std::exp(-d / temperature_at(step));
    if (accept) {
      problem_.commit(move);
      if (swaps_enabled_) {
        for (const std::size_t k : move.indices()) sampler_.flip(k);
      }
      current_ += d;
      ++result_.accepted;
      if (current_ < result_.best_energy) {
        result_.best_energy = current_;
        result_.best_x = problem_.state();
      }
    } else {
      ++result_.rejected_metropolis;
    }
    if (params_.record_trace) result_.trace.push_back(current_);
  }
}

SaResult SaWalk::take_result() {
  result_.final_x = problem_.state();
  result_.final_energy = current_;
  return std::move(result_);
}

SaResult simulated_annealing(SaProblem& problem, const qubo::BitVector& x0,
                             const SaParams& params) {
  if (x0.size() != problem.num_bits()) {
    throw std::invalid_argument("simulated_annealing: x0 size mismatch");
  }
  SaWalk walk(problem, x0, params, util::Rng(params.seed));
  walk.run_to(params.iterations);
  return walk.take_result();
}

}  // namespace hycim::anneal
