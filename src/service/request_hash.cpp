#include "service/request_hash.hpp"

#include <bit>
#include <span>
#include <variant>
#include <vector>

namespace hycim::service {

namespace {

/// Two independent 64-bit mixes over one absorb stream: FNV-1a and a
/// boost-style combine.  Every field goes through absorb() in a fixed
/// order, with container lengths absorbed before elements so (sizes,
/// contents) ambiguities cannot alias.
class Hasher {
 public:
  void absorb(std::uint64_t v) {
    a_ = (a_ ^ v) * 0x100000001b3ULL;
    b_ ^= v + 0x9e3779b97f4a7c15ULL + (b_ << 6) + (b_ >> 2);
  }
  void absorb(double v) { absorb(std::bit_cast<std::uint64_t>(v)); }
  void absorb(int v) { absorb(static_cast<std::uint64_t>(v)); }
  void absorb(bool v) { absorb(static_cast<std::uint64_t>(v)); }
  void absorb(long long v) { absorb(static_cast<std::uint64_t>(v)); }
  template <typename E>
    requires std::is_enum_v<E>
  void absorb(E v) {
    absorb(static_cast<std::uint64_t>(v));
  }
  void absorb(std::span<const double> values) {
    absorb(values.size());
    for (const double v : values) absorb(v);
  }
  void absorb(const std::vector<long long>& values) {
    absorb(values.size());
    for (const long long v : values) absorb(v);
  }

  void absorb(const device::FeFetParams& p) {
    absorb(p.num_levels);
    absorb(p.vth_high);
    absorb(p.vth_low);
    absorb(p.ss_mv_per_dec);
    absorb(p.i0_sub);
    absorb(p.i_off);
    absorb(p.rch0);
    absorb(p.gm_lin);
    absorb(p.v_coercive);
    absorb(p.v_sat);
    absorb(p.sigma_vth_c2c);
    absorb(p.drift_v_per_decade);
  }

  void absorb(const device::VariationParams& p) {
    absorb(p.sigma_vth_d2d);
    absorb(p.sigma_vth_c2c);
    absorb(p.sigma_r_rel);
    absorb(p.sigma_cml_rel);
    absorb(p.p_stuck_on);
    absorb(p.p_stuck_off);
  }

  void absorb(const cim::InequalityFilterParams& p) {
    absorb(p.array.rows);
    absorb(p.array.v_dd);
    absorb(p.array.c_ml);
    absorb(p.array.r_series);
    absorb(p.array.t_phase);
    absorb(p.array.decompose);
    absorb(p.array.fefet);
    absorb(p.comparator.sigma_offset);
    absorb(p.comparator.sigma_noise);
    absorb(p.variation);
    absorb(p.fab_seed);
    absorb(p.decision_seed);
    absorb(p.margin_units);
  }

  void absorb(const cim::VmvEngineParams& p) {
    absorb(p.adc.bits);
    absorb(p.adc.i_lsb);
    absorb(p.adc.sigma_noise_a);
    absorb(p.crossbar.v_dl);
    absorb(p.crossbar.r_series);
    absorb(p.crossbar.fefet);
    absorb(p.variation);
    absorb(p.fab_seed);
  }

  void absorb(const cim::LinearConstraint& c) {
    absorb(c.weights);
    absorb(c.capacity);
  }

  ChipKey key() const { return {a_, b_}; }

 private:
  std::uint64_t a_ = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  std::uint64_t b_ = 0x6a09e667f3bcc909ULL;
};

}  // namespace

ChipKey fabrication_key(const core::ConstrainedQuboForm& form,
                        const core::HyCimConfig& config) {
  Hasher h;
  // The form: matrix (packed upper triangle + offset) and both constraint
  // lists — what the chip is programmed with.
  h.absorb(form.q.size());
  h.absorb(form.q.packed());
  h.absorb(form.q.offset());
  h.absorb(form.constraints.size());
  for (const auto& c : form.constraints) h.absorb(c);
  h.absorb(form.equalities.size());
  for (const auto& c : form.equalities) h.absorb(c);

  // The config's fabrication corners + seeds: everything
  // HyCimSolver(form, config) construction reads.  The SA schedule and
  // search strategy deliberately stay out — they only drive the solve.
  h.absorb(config.fidelity);
  h.absorb(config.matrix_bits);
  h.absorb(config.filter_mode);
  h.absorb(config.filter);
  h.absorb(config.vmv);
  return h.key();
}

ChipKey solve_key(const core::HyCimConfig& config) {
  Hasher h;
  h.absorb(config.sa.iterations);
  h.absorb(config.sa.max_proposals);
  h.absorb(config.sa.t0);
  h.absorb(config.sa.t_end_frac);
  h.absorb(config.sa.schedule);
  h.absorb(config.sa.seed);
  h.absorb(config.sa.record_trace);
  h.absorb(config.sa.swap_probability);
  // The search strategy: variant index first so the three kinds can never
  // alias, then the selected kind's knobs.
  h.absorb(config.search.index());
  if (const auto* tempering =
          std::get_if<anneal::TemperingParams>(&config.search)) {
    h.absorb(tempering->replicas);
    h.absorb(tempering->t_ratio);
    h.absorb(tempering->exchange_interval);
    h.absorb(tempering->record_trace);
  }
  if (const auto* archipelago =
          std::get_if<anneal::ArchipelagoParams>(&config.search)) {
    h.absorb(archipelago->islands);
    h.absorb(archipelago->roster.size());
    for (const anneal::IslandSearch& entry : archipelago->roster) {
      h.absorb(entry.index());
      if (const auto* tempering =
              std::get_if<anneal::TemperingParams>(&entry)) {
        h.absorb(tempering->replicas);
        h.absorb(tempering->t_ratio);
        h.absorb(tempering->exchange_interval);
        h.absorb(tempering->record_trace);
      }
    }
    h.absorb(archipelago->topology);
    h.absorb(archipelago->migration_interval);
    h.absorb(archipelago->stagnation_epochs);
    h.absorb(archipelago->adapt_ladder);
    h.absorb(archipelago->target_acceptance);
    h.absorb(archipelago->record_trace);
  }
  h.absorb(config.check_incremental);
  return h.key();
}

ChipKey chip_key(const core::ConstrainedQuboForm& form,
                 const core::HyCimConfig& config) {
  const ChipKey fab = fabrication_key(form, config);
  const ChipKey solve = solve_key(config);
  Hasher h;
  h.absorb(fab.lo);
  h.absorb(fab.hi);
  h.absorb(solve.lo);
  h.absorb(solve.hi);
  return h.key();
}

}  // namespace hycim::service
