// Golden digests: the exact bits the QUBO construction, quantization, and
// annealing layers produce on two instances of the paper's Fig. 10 suite
// (instance 0, density 25, sparse kernel; instance 30, density 100, dense
// kernel), pinned as literals.  Self-consistency checks (width 1 == width
// max, dense == sparse) cannot see a change that moves every path the same
// way; these can.
//
// Each digest is a 64-bit FNV-1a over the object bytes of:
//   * the one-hot D-QUBO matrix: packed triangle and offset;
//   * quantization: the D-QUBO matrix at its own ⌈log2 (Qij)MAX⌉ bits and
//     the HyCiM chip's 7-bit crossbar matrix (values, magnitude bits,
//     scale);
//   * four seeded D-QUBO runs: (best_x, proposed, evaluated, profit);
//   * four seeded HyCiM runs on one fabricated chip with quantized energies
//     and hardware filters: (best_x, proposed, evaluated, profit);
//   * the ensemble searches, two seeded runs each: a 4-replica ladder on
//     hardware filters (one cloned chip per replica), a 3-island
//     {SA, PT-3} ring archipelago on software filters with resampling and
//     adaptive ladders, and a tempered max-cut solve of the instance's
//     profit graph (plain anneal::QuboProblem replicas) — each run absorbing
//     best_x, the proposed/evaluated counts, the per-replica counters, the
//     island statistics, and the exchange, migration and resample traces.
//
// A second table pins every constraint-row path the QKP (one ≤ row) does
// not reach: a multi-row MDKP bank, equality rows only (graph coloring)
// and a mixed ≤/= form (exact-k selection), each with software filters
// and with hardware filters at a noisy comparator corner.
//
// A third table pins the proposal path of the walk on software filters:
// every cooling law with and without swap moves on instance 0, and swap
// walks on e2ebench's anneal_large instances (QKP n=400, and an MDKP with
// 8 rows, 2 incident per item) under SA and 8-replica tempering.
//
// A fourth pins circuit fidelity: a small QKP on the VMV engine's
// crossbars at realistic variation and hardware filters, with ADC noise
// large enough to move codes (so the ADC's noise stream reaches the
// digest), under SA, a 3-replica ladder of cloned crossbars and ADCs, and
// after reprogram().
//
// Moving a literal is a trajectory change: the change must declare which
// gate of the README's gating rule it falls under.  To regenerate, build
// and run tests/integration_golden_test; every failing check prints the
// digest the current code produces — paste it over the old literal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cim/crossbar/bit_slice.hpp"
#include "cop/adapters.hpp"
#include "cop/graph_coloring.hpp"
#include "cop/maxcut.hpp"
#include "cop/mdkp.hpp"
#include "cop/qkp.hpp"
#include "core/dqubo_onehot.hpp"
#include "core/dqubo_solver.hpp"
#include "core/hycim_solver.hpp"
#include "device/variation.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

constexpr std::size_t kRuns = 4;
constexpr std::size_t kIterations = 1000;
constexpr std::uint64_t kRunSeed = 2024;

/// 64-bit FNV-1a over the object representation of absorbed scalars.
class Digest {
 public:
  template <typename T>
  void absorb(const T* data, std::size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    for (std::size_t b = 0; b < count * sizeof(T); ++b) {
      hash_ = (hash_ ^ bytes[b]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void absorb(const std::vector<T>& values) {
    absorb(values.data(), values.size());
  }
  template <typename T>
  void absorb(const T& value) {
    absorb(&value, 1);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void absorb_run(Digest& d, const qubo::BitVector& best_x, std::size_t proposed,
                std::size_t evaluated, long long profit) {
  d.absorb(best_x);
  d.absorb(static_cast<std::uint64_t>(proposed));
  d.absorb(static_cast<std::uint64_t>(evaluated));
  d.absorb(profit);
}

void absorb_quantized(Digest& d, const cim::QuantizedQubo& q) {
  d.absorb(q.values);
  d.absorb(q.magnitude_bits);
  d.absorb(q.scale);
}

/// Absorbs a count as a fixed-width integer.
void absorb_count(Digest& d, std::size_t value) {
  d.absorb(static_cast<std::uint64_t>(value));
}

/// Absorbs every telemetry field of an ensemble solve, field by field (the
/// event structs carry padding, so their object bytes are not a value).
void absorb_ensemble(Digest& d, const core::SolveResult& result) {
  d.absorb(result.best_x);
  absorb_count(d, result.sa.proposed);
  absorb_count(d, result.sa.evaluated);
  for (const anneal::ReplicaCounters& r : result.replicas) {
    absorb_count(d, r.evaluated);
    absorb_count(d, r.proposed);
    absorb_count(d, r.accepted);
    absorb_count(d, r.rejected_infeasible);
    absorb_count(d, r.rejected_metropolis);
    absorb_count(d, r.exchanges_accepted);
    d.absorb(r.best_energy);
    d.absorb(r.final_energy);
  }
  for (const anneal::IslandStats& s : result.islands) {
    absorb_count(d, s.replicas);
    absorb_count(d, s.search_kind);
    absorb_count(d, s.evaluated);
    absorb_count(d, s.proposed);
    absorb_count(d, s.accepted);
    d.absorb(s.best_energy);
    absorb_count(d, s.exchanges_proposed);
    absorb_count(d, s.exchanges_accepted);
    absorb_count(d, s.migrants_in);
    absorb_count(d, s.migrants_out);
    absorb_count(d, s.resamples);
    absorb_count(d, s.respaces);
    d.absorb(s.t_ratio);
  }
  for (const anneal::ExchangeEvent& e : result.exchange_trace) {
    absorb_count(d, e.barrier);
    absorb_count(d, e.slot);
    absorb_count(d, e.replica_lo);
    absorb_count(d, e.replica_hi);
    absorb_count(d, e.accepted);
  }
  for (const anneal::MigrationEvent& e : result.migration_trace) {
    absorb_count(d, e.epoch);
    absorb_count(d, e.from_island);
    absorb_count(d, e.to_island);
    d.absorb(e.migrant_energy);
    d.absorb(e.displaced_energy);
    absorb_count(d, e.accepted);
  }
  for (const anneal::ResampleEvent& e : result.resample_trace) {
    absorb_count(d, e.epoch);
    absorb_count(d, e.island);
    absorb_count(d, e.source_island);
    d.absorb(e.stagnant_best);
    d.absorb(e.elite_energy);
  }
  absorb_count(d, result.exchanges_proposed);
  absorb_count(d, result.exchanges_accepted);
  absorb_count(d, result.migrations_proposed);
  absorb_count(d, result.migrations_accepted);
  absorb_count(d, result.resamples);
  absorb_count(d, result.respaces);
}

/// The instance's profit graph: one edge of weight p_ij per nonzero
/// off-diagonal profit.
cop::MaxCutInstance profit_graph(const cop::QkpInstance& inst) {
  cop::MaxCutInstance g;
  g.name = inst.name + "_cut";
  g.num_vertices = inst.n;
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i + 1; j < inst.n; ++j) {
      if (inst.profit(i, j) != 0) {
        g.edges.push_back({i, j, static_cast<double>(inst.profit(i, j))});
      }
    }
  }
  return g;
}

struct Golden {
  std::size_t instance;
  std::uint64_t dqubo_matrix;
  std::uint64_t quantized;
  std::uint64_t dqubo_runs;
  std::uint64_t hycim_runs;
};

constexpr Golden kGolden[] = {
    {0, 0x86809324e0f73467ULL, 0xb9fa1a14051e55a7ULL, 0x3ce94a993865d210ULL,
     0x281ec03ef8d373b2ULL},
    {30, 0x0c04e72dd62019ccULL, 0x17a913fa1becb789ULL, 0xcc15dc94ce2b1851ULL,
     0x0c99d7ccff989329ULL},
};

void expect_digest(const char* what, std::uint64_t actual,
                   std::uint64_t expected) {
  EXPECT_EQ(actual, expected)
      << what << ": the current code produces 0x" << std::hex << actual;
}

TEST(Golden, PaperSuiteDigests) {
  const std::vector<cop::QkpInstance> suite = cop::generate_paper_suite();
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE("paper-suite instance " + std::to_string(golden.instance));
    const cop::QkpInstance& inst = suite.at(golden.instance);

    const core::DquboOneHotForm form = core::to_dqubo_onehot(inst);
    Digest matrix;
    matrix.absorb(form.q.packed().data(), form.q.packed().size());
    matrix.absorb(form.q.offset());
    expect_digest("D-QUBO matrix", matrix.value(), golden.dqubo_matrix);

    core::HyCimConfig hycim;
    hycim.sa.iterations = kIterations;
    hycim.fidelity = cim::VmvMode::kQuantized;
    hycim.filter_mode = core::FilterMode::kHardware;
    core::HyCimSolver chip(cop::to_constrained_form(inst), hycim);

    Digest quantized;
    absorb_quantized(quantized,
                     cim::quantize(form.q, form.q.quantization_bits()));
    absorb_quantized(quantized,
                     cim::quantize(*chip.eval_matrix(), hycim.matrix_bits));
    expect_digest("quantization", quantized.value(), golden.quantized);

    core::DquboConfig dqubo_config;
    dqubo_config.sa.iterations = kIterations;
    dqubo_config.fidelity = cim::VmvMode::kQuantized;
    core::DquboSolver dqubo(inst, dqubo_config);
    util::Rng dqubo_rng(kRunSeed);
    Digest dqubo_runs;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const qubo::BitVector xy0 = dqubo.random_initial(dqubo_rng);
      const auto result = dqubo.solve(xy0, dqubo_rng.next_u64());
      absorb_run(dqubo_runs, result.best_x, result.sa.proposed,
                 result.sa.evaluated, result.profit);
    }
    expect_digest("D-QUBO runs", dqubo_runs.value(), golden.dqubo_runs);

    util::Rng hycim_rng(kRunSeed);
    Digest hycim_runs;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const qubo::BitVector x0 = cop::random_feasible(inst, hycim_rng);
      core::HyCimSolver run(chip, hycim_rng.next_u64() | 1);
      const core::SolveResult result = run.solve(x0, hycim_rng.next_u64());
      const long long profit =
          result.feasible ? inst.total_profit(result.best_x) : 0;
      absorb_run(hycim_runs, result.best_x, result.sa.proposed,
                 result.sa.evaluated, profit);
    }
    expect_digest("HyCiM runs", hycim_runs.value(), golden.hycim_runs);
  }
}

struct EnsembleGolden {
  std::size_t instance;
  std::uint64_t ladder;
  std::uint64_t archipelago;
  std::uint64_t maxcut;
};

constexpr EnsembleGolden kEnsembleGolden[] = {
    {0, 0xc6fc2cef9d6e44fbULL, 0xeabb2e4320d64599ULL, 0x90a0aa1e8b925551ULL},
    {30, 0x7af466922c6d635eULL, 0x84b9a55bcd3dfcd6ULL, 0x084e4ce1fe3d0fb5ULL},
};

constexpr std::size_t kEnsembleRuns = 2;

/// Digest of kEnsembleRuns seeded solves on clones of one fabricated chip,
/// each from an initial configuration drawn by `init`, each result folded
/// in by `absorb`.
template <typename Init>
std::uint64_t ensemble_digest(
    const core::ConstrainedQuboForm& form, const core::HyCimConfig& config,
    Init init,
    void (*absorb)(Digest&, const core::SolveResult&) = absorb_ensemble) {
  const core::HyCimSolver chip(form, config);
  util::Rng rng(kRunSeed);
  Digest digest;
  for (std::size_t r = 0; r < kEnsembleRuns; ++r) {
    const qubo::BitVector x0 = init(rng);
    core::HyCimSolver run(chip, rng.next_u64() | 1);
    absorb(digest, run.solve(x0, rng.next_u64()));
  }
  return digest.value();
}

TEST(Golden, EnsembleDigests) {
  const std::vector<cop::QkpInstance> suite = cop::generate_paper_suite();
  for (const EnsembleGolden& golden : kEnsembleGolden) {
    SCOPED_TRACE("paper-suite instance " + std::to_string(golden.instance));
    const cop::QkpInstance& inst = suite.at(golden.instance);
    const core::ConstrainedQuboForm form = cop::to_constrained_form(inst);
    const auto feasible_init = [&inst](util::Rng& rng) {
      return cop::random_feasible(inst, rng);
    };

    core::HyCimConfig ladder;
    ladder.sa.iterations = kIterations;
    ladder.fidelity = cim::VmvMode::kQuantized;
    ladder.filter_mode = core::FilterMode::kHardware;
    anneal::TemperingParams four;
    four.replicas = 4;
    ladder.search = four;
    expect_digest("hardware ladder",
                  ensemble_digest(form, ladder, feasible_init),
                  golden.ladder);

    core::HyCimConfig islands;
    islands.sa.iterations = kIterations;
    islands.filter_mode = core::FilterMode::kSoftware;
    anneal::TemperingParams three;
    three.replicas = 3;
    anneal::ArchipelagoParams archipelago;
    archipelago.islands = 3;
    archipelago.roster = {anneal::SaSearch{}, three};
    archipelago.topology = anneal::MigrationTopology::kRing;
    archipelago.migration_interval = 100;
    archipelago.stagnation_epochs = 1;
    archipelago.adapt_ladder = true;
    islands.search = archipelago;
    expect_digest("archipelago",
                  ensemble_digest(form, islands, feasible_init),
                  golden.archipelago);

    const cop::MaxCutInstance graph = profit_graph(inst);
    core::HyCimConfig maxcut;
    maxcut.sa.iterations = kIterations;
    maxcut.filter_mode = core::FilterMode::kSoftware;
    maxcut.search = anneal::TemperingParams{};
    expect_digest("tempered max-cut",
                  ensemble_digest(cop::to_constrained_form(graph), maxcut,
                                  [&graph](util::Rng& rng) {
                                    return rng.random_bits(graph.num_vertices);
                                  }),
                  golden.maxcut);
  }
}

/// A constrained form with a feasible initial configuration.
struct RowCase {
  const char* name;
  core::ConstrainedQuboForm form;
  qubo::BitVector x0;
};

/// MDKP with 8 resource rows, each item wired into 2 of them.
RowCase mdkp_case() {
  cop::MdkpGeneratorParams params;
  params.n = 60;
  params.dimensions = 8;
  params.incident_dimensions = 2;
  const cop::MdkpInstance inst = cop::generate_mdkp(params, 11);
  util::Rng rng(kRunSeed);
  return {"mdkp 8x2", cop::to_constrained_form(inst),
          cop::random_feasible(inst, rng)};
}

/// Graph coloring: one one-hot equality row per vertex, no ≤ rows.
RowCase coloring_case() {
  const cop::ColoringForm cf =
      cop::to_constrained_form(cop::generate_coloring(8, 0.4, 3, 11));
  return {"coloring", cf.form,
          cop::encode_coloring(cf, std::vector<std::size_t>(cf.vertices, 0))};
}

/// The exact-k portfolio of examples/exact_k_portfolio: a risk budget
/// (≤ row) and an exactly-k cardinality (= row).
RowCase exact_k_case() {
  const std::size_t n = 24;
  const std::size_t k = 8;
  util::Rng gen(31);
  std::vector<long long> ret(n), risk(n);
  for (auto& r : ret) r = gen.uniform_int(20, 90);
  for (auto& r : risk) r = gen.uniform_int(5, 30);
  core::ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    form.q.add(i, i, -static_cast<double>(ret[i]));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (gen.bernoulli(0.2)) {
        form.q.add(i, j, -static_cast<double>(gen.uniform_int(5, 25)));
      }
    }
  }
  form.constraints.push_back({risk, 140});
  form.equalities.push_back(
      {std::vector<long long>(n, 1), static_cast<long long>(k)});
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return risk[a] < risk[b]; });
  qubo::BitVector x0(n, 0);
  for (std::size_t i = 0; i < k; ++i) x0[order[i]] = 1;
  return {"exact-k", std::move(form), std::move(x0)};
}

/// Absorbs the per-replica counters (empty for a single walk).
void absorb_replicas(Digest& d, const core::SolveResult& result) {
  for (const anneal::ReplicaCounters& r : result.replicas) {
    absorb_count(d, r.evaluated);
    absorb_count(d, r.proposed);
    absorb_count(d, r.accepted);
    absorb_count(d, r.rejected_infeasible);
    absorb_count(d, r.rejected_metropolis);
    absorb_count(d, r.exchanges_accepted);
    d.absorb(r.best_energy);
    d.absorb(r.final_energy);
  }
}

/// Absorbs best_x, the walk counts and the per-replica counters.
void absorb_rows(Digest& d, const core::SolveResult& result) {
  d.absorb(result.best_x);
  absorb_count(d, result.sa.proposed);
  absorb_count(d, result.sa.evaluated);
  absorb_count(d, result.sa.rejected_infeasible);
  absorb_replicas(d, result);
}

/// Under SA and then 3-replica tempering: fabricates one chip, solves on
/// its clones with decision seeds 12345 and 0, then reprograms the chip
/// and solves on it.
std::uint64_t rows_digest(const RowCase& c, core::HyCimConfig config) {
  anneal::TemperingParams three;
  three.replicas = 3;
  const anneal::SearchParams searches[] = {anneal::SaSearch{}, three};
  Digest digest;
  for (const anneal::SearchParams& search : searches) {
    config.search = search;
    core::HyCimSolver chip(c.form, config);
    for (const std::uint64_t decision_seed : {12345ULL, 0ULL}) {
      core::HyCimSolver run(chip, decision_seed);
      absorb_rows(digest, run.solve(c.x0, kRunSeed));
    }
    chip.reprogram();
    absorb_rows(digest, chip.solve(c.x0, kRunSeed + 1));
  }
  return digest.value();
}

struct RowGolden {
  std::uint64_t software;
  std::uint64_t hardware;
};

TEST(Golden, ConstraintRowDigests) {
  const RowCase cases[] = {mdkp_case(), coloring_case(), exact_k_case()};
  constexpr RowGolden kRowGolden[] = {
      {0xd4a3fd614280eeb2ULL, 0x41021a4c090ad44aULL},
      {0xc1f9fa143cb4facaULL, 0x43648b997ab5b7a6ULL},
      {0x5eb22c0042711e3aULL, 0x2a22d3abd8620a81ULL},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE(cases[i].name);
    core::HyCimConfig software;
    software.sa.iterations = kIterations;
    software.filter_mode = core::FilterMode::kSoftware;
    expect_digest("software rows", rows_digest(cases[i], software),
                  kRowGolden[i].software);

    // A noisy comparator corner: at the default corners the ±½-unit
    // equality window sits about 10σ from the decision noise, so a change
    // to the window comparators' streams would not show.
    core::HyCimConfig hardware = software;
    hardware.filter_mode = core::FilterMode::kHardware;
    hardware.filter.comparator.sigma_noise = 2e-4;
    hardware.filter.comparator.sigma_offset = 1e-4;
    expect_digest("hardware rows", rows_digest(cases[i], hardware),
                  kRowGolden[i].hardware);
  }
}

/// Absorbs best_x, every walk counter and the per-replica counters.
void absorb_walk(Digest& d, const core::SolveResult& result) {
  d.absorb(result.best_x);
  absorb_count(d, result.sa.proposed);
  absorb_count(d, result.sa.evaluated);
  absorb_count(d, result.sa.accepted);
  absorb_count(d, result.sa.rejected_infeasible);
  absorb_count(d, result.sa.rejected_metropolis);
  absorb_replicas(d, result);
}

TEST(Golden, WalkPathDigests) {
  core::HyCimConfig config;
  config.sa.iterations = kIterations;
  config.filter_mode = core::FilterMode::kSoftware;

  // Each cooling law, with single-bit flips only and with swaps.
  const cop::QkpInstance inst = cop::generate_paper_suite().at(0);
  struct ScheduleGolden {
    const char* name;
    anneal::ScheduleKind kind;
    double swap_probability;
    std::uint64_t digest;
  };
  using anneal::ScheduleKind;
  constexpr ScheduleGolden kScheduleGolden[] = {
      {"geometric, flips", ScheduleKind::kGeometric, 0.0,
       0x4840fe87934a8786ULL},
      {"geometric, swaps", ScheduleKind::kGeometric, 0.5,
       0x1421fc9d4a0147e3ULL},
      {"linear, flips", ScheduleKind::kLinear, 0.0, 0x9f7b841d115f384fULL},
      {"linear, swaps", ScheduleKind::kLinear, 0.5, 0xbc1ed24c60105130ULL},
      {"constant, flips", ScheduleKind::kConstant, 0.0,
       0x6f3d4f675cbc4847ULL},
      {"constant, swaps", ScheduleKind::kConstant, 0.5,
       0x6a32ad67278326b4ULL},
  };
  for (const ScheduleGolden& golden : kScheduleGolden) {
    SCOPED_TRACE(golden.name);
    core::HyCimConfig walk = config;
    walk.sa.schedule = golden.kind;
    walk.sa.swap_probability = golden.swap_probability;
    expect_digest("schedule walk",
                  ensemble_digest(cop::to_constrained_form(inst), walk,
                                  [&inst](util::Rng& rng) {
                                    return cop::random_feasible(inst, rng);
                                  },
                                  absorb_walk),
                  golden.digest);
  }

  // e2ebench's anneal_large instances and tempering ladder, at 2000
  // iterations per replica.
  cop::QkpGeneratorParams qkp_params;
  qkp_params.n = 400;
  qkp_params.density_percent = 25;
  const cop::QkpInstance qkp = cop::generate_qkp(qkp_params, 2024);
  cop::MdkpGeneratorParams mdkp_params;
  mdkp_params.n = 400;
  mdkp_params.dimensions = 8;
  mdkp_params.incident_dimensions = 2;
  mdkp_params.density_percent = 25;
  mdkp_params.tightness_lo = 0.6;
  mdkp_params.tightness_hi = 0.9;
  const cop::MdkpInstance mdkp = cop::generate_mdkp(mdkp_params, 2026);
  anneal::TemperingParams eight;
  eight.replicas = 8;
  eight.exchange_interval = 500;
  eight.record_trace = false;
  const anneal::SearchParams searches[] = {anneal::SaSearch{}, eight};
  constexpr std::uint64_t kLargeGolden[][2] = {
      {0xc6d633bbf537830eULL, 0x4e5d9ceb30901f59ULL},  // QKP: SA, PT-8
      {0x87417009d5d8370eULL, 0x434565ba7ccd6a63ULL},  // MDKP: SA, PT-8
  };
  config.sa.iterations = 2000;
  for (std::size_t s = 0; s < std::size(searches); ++s) {
    SCOPED_TRACE(s == 0 ? "SA" : "PT-8");
    config.search = searches[s];
    expect_digest("QKP n=400",
                  ensemble_digest(cop::to_constrained_form(qkp), config,
                                  [&qkp](util::Rng& rng) {
                                    return cop::random_feasible(qkp, rng);
                                  },
                                  absorb_walk),
                  kLargeGolden[0][s]);
    expect_digest("MDKP n=400 8x2",
                  ensemble_digest(cop::to_constrained_form(mdkp), config,
                                  [&mdkp](util::Rng& rng) {
                                    return cop::random_feasible(mdkp, rng);
                                  },
                                  absorb_walk),
                  kLargeGolden[1][s]);
  }
}

TEST(Golden, CircuitDigests) {
  cop::QkpGeneratorParams params;
  params.n = 20;
  params.density_percent = 50;
  const cop::QkpInstance inst = cop::generate_qkp(params, 2028);
  const core::ConstrainedQuboForm form = cop::to_constrained_form(inst);
  const auto feasible_init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };

  core::HyCimConfig config;
  config.sa.iterations = kIterations;
  config.fidelity = cim::VmvMode::kCircuit;
  config.filter_mode = core::FilterMode::kHardware;
  config.vmv.variation = device::VariationParams{};  // realistic corners
  // About a fifth of an LSB: enough for draws to move codes, so the
  // digests follow the ADC's noise stream.
  config.vmv.adc.sigma_noise_a = 2e-7;
  expect_digest("circuit SA", ensemble_digest(form, config, feasible_init),
                0x8999d232d68375b9ULL);

  core::HyCimConfig ladder = config;
  anneal::TemperingParams three;
  three.replicas = 3;
  ladder.search = three;
  expect_digest("circuit ladder",
                ensemble_digest(form, ladder, feasible_init),
                0x387813c5ddb15bb2ULL);

  core::HyCimSolver chip(form, config);
  chip.reprogram();
  util::Rng rng(kRunSeed);
  Digest reprogrammed;
  absorb_ensemble(reprogrammed, chip.solve(feasible_init(rng), kRunSeed));
  expect_digest("circuit after reprogram", reprogrammed.value(),
                0xaca6e5dd0cfe53c4ULL);
}

}  // namespace
}  // namespace hycim
