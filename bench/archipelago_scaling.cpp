// Archipelago scaling bench — the island-runtime perf + quality
// trajectory (BENCH_archipelago.json).
//
// Two halves, mirroring sched_scaling's protocol:
//
//   * scheduling: one mixed-roster archipelago QKP batch (runs × islands ×
//     replica segments, the three-level task tree) executed through the
//     shared runtime::ExecutorPool at widths 1, 2, and max — identity
//     flags (best_x, island stats, migration/resample traces) and the
//     deterministic work counters (pool tasks, migrations proposed /
//     accepted, resamples, respaces) are CI-pinned by
//     tools/check_archipelago_regression.py; wall clocks are trajectory
//     only;
//   * quality gate: the equal-QUBO-budget panel (dense QKP instances,
//     16 walks × iterations each way) comparing cumulative best profit of
//     best-of-N SA, replica exchange, and the archipelago — the island
//     model must beat-or-match both baselines in aggregate (the fig8-style
//     statistical gate from the tier-1 suite, here at bench scale).
//
// Console emits one `[archipelago]` line per width and one for the gate,
// mirroring sched_scaling's `[executor-pool]` convention for the CI smoke
// grep.  Exit is nonzero if any width breaks identity or the gate fails.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "cop/adapters.hpp"
#include "core/thread_budget.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/executor_pool.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace hycim;

struct Measurement {
  std::string label;
  double wall_seconds = 0.0;
  std::size_t tasks = 0;  ///< pool tasks executed by this batch
  std::size_t migrations_proposed = 0;
  std::size_t migrations_accepted = 0;
  std::size_t resamples = 0;
  std::size_t respaces = 0;
  bool identical = true;  ///< batch bit-identical to the width-1 batch
};

bool batches_identical(const runtime::BatchResult& a,
                       const runtime::BatchResult& b) {
  if (a.best_x != b.best_x || a.best_energy != b.best_energy ||
      a.best_run != b.best_run || a.runs.size() != b.runs.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.runs.size(); ++r) {
    if (a.runs[r].best_x != b.runs[r].best_x ||
        a.runs[r].best_energy != b.runs[r].best_energy ||
        a.runs[r].evaluated != b.runs[r].evaluated ||
        a.runs[r].islands != b.runs[r].islands ||
        a.runs[r].exchange_trace != b.runs[r].exchange_trace ||
        a.runs[r].migration_trace != b.runs[r].migration_trace ||
        a.runs[r].resample_trace != b.runs[r].resample_trace) {
      return false;
    }
  }
  return true;
}

long long best_profit(const cop::QkpInstance& inst,
                      const runtime::BatchResult& batch) {
  long long best = 0;
  for (const auto& r : batch.runs) {
    if (r.feasible) best = std::max(best, inst.total_profit(r.best_x));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("archipelago_scaling",
                "Island-runtime scaling + equal-budget quality gate");
  cli.add_int("items", 60, "QKP items (scheduling half)");
  cli.add_int("runs", 4, "archipelago restarts per batch");
  cli.add_int("islands", 3, "islands per archipelago");
  cli.add_int("iterations", 2000, "SA iterations per replica");
  cli.add_int("migration_interval", 100,
              "QUBO computations between migration epochs");
  cli.add_int("gate_items", 80, "QKP items (quality gate)");
  cli.add_int("gate_instances", 4, "instances in the quality-gate panel");
  cli.add_int("gate_iterations", 800, "iterations per walk in the gate");
  cli.add_int("seed", 2024, "instance + batch seed");
  cli.add_string("json", "BENCH_archipelago.json",
                 "machine-readable results path");
  cli.add_string("out", "", "output directory (empty = path as given)");
  if (!cli.parse(argc, argv)) return 0;

  std::filesystem::path json_path = cli.get_string("json");
  if (!cli.get_string("out").empty()) {
    const std::filesystem::path out_dir = cli.get_string("out");
    std::filesystem::create_directories(out_dir);
    json_path = out_dir / json_path.filename();
  }

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cop::QkpGeneratorParams gen;
  gen.n = static_cast<std::size_t>(cli.get_int("items"));
  gen.density_percent = 50;
  const auto inst = cop::generate_qkp(gen, seed);
  const auto form = cop::to_constrained_form(inst);

  // The mixed roster: a 3-replica ladder island alternating with plain SA
  // islands, ring migration, resampling and ladder adaptation on — every
  // subsystem of the island runtime is in the measured tree.
  core::HyCimConfig config;
  config.sa.iterations = static_cast<std::size_t>(cli.get_int("iterations"));
  config.filter_mode = core::FilterMode::kSoftware;
  anneal::ArchipelagoParams ap;
  ap.islands = static_cast<std::size_t>(cli.get_int("islands"));
  anneal::TemperingParams ladder;
  ladder.replicas = 3;
  ladder.exchange_interval = 25;
  ap.roster = {ladder, anneal::SaSearch{}};
  ap.migration_interval =
      static_cast<std::size_t>(cli.get_int("migration_interval"));
  ap.stagnation_epochs = 2;
  config.search = ap;
  const core::HyCimSolver prototype(form, config);
  const auto init = [&inst](util::Rng& rng) {
    return cop::random_feasible(inst, rng);
  };

  runtime::BatchParams params;
  params.restarts = static_cast<std::size_t>(cli.get_int("runs"));
  params.seed = seed;

  auto& pool = runtime::ExecutorPool::global();
  const unsigned budget = pool.budget();

  runtime::BatchResult reference;  // the width-1 batch
  std::vector<Measurement> rows;
  const auto measure = [&](const std::string& label, unsigned threads) {
    runtime::BatchParams p = params;
    p.threads = threads;
    const runtime::PoolStats before = pool.stats();
    const auto start = std::chrono::steady_clock::now();
    const runtime::BatchResult batch = runtime::solve_batch(prototype, init, p);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const runtime::PoolStats after = pool.stats();
    Measurement m;
    m.label = label;
    m.wall_seconds = wall;
    m.tasks = after.tasks_executed - before.tasks_executed;
    m.migrations_proposed = batch.total_migrations_proposed;
    m.migrations_accepted = batch.total_migrations_accepted;
    m.resamples = batch.total_resamples;
    m.respaces = batch.total_respaces;
    if (rows.empty()) {
      reference = batch;
    } else {
      m.identical = batches_identical(reference, batch);
    }
    rows.push_back(m);
    std::cout << "[archipelago] " << label << ": " << wall << " s, " << m.tasks
              << " tasks, " << m.migrations_proposed << " migrations ("
              << m.migrations_accepted << " accepted), " << m.resamples
              << " resamples, " << m.respaces
              << " respaces, identical=" << (m.identical ? "yes" : "NO")
              << "\n";
  };

  measure("island_threads_1", 1);
  measure("island_threads_2", 2);
  measure("island_threads_max", 0);

  // ---------------------------------------------------------------------
  // The equal-budget quality gate: cumulative best profit over a panel of
  // dense instances, 16 walks × gate_iterations per method per instance.
  const auto gate_instances =
      static_cast<std::size_t>(cli.get_int("gate_instances"));
  const auto gate_iterations =
      static_cast<std::size_t>(cli.get_int("gate_iterations"));
  long long sa_total = 0, pt_total = 0, island_total = 0;
  for (std::size_t i = 0; i < gate_instances; ++i) {
    cop::QkpGeneratorParams gate_gen;
    gate_gen.n = static_cast<std::size_t>(cli.get_int("gate_items"));
    gate_gen.density_percent = 100;
    // The panel seeds from the tier-1 gate (tests/runtime/archipelago_test)
    // continued: 8, 11, 17, 29, 8+4i...
    const std::uint64_t panel[] = {8, 11, 17, 29};
    const std::uint64_t gate_seed =
        i < 4 ? panel[i] : 8 + 4 * static_cast<std::uint64_t>(i);
    const auto gate_inst = cop::generate_qkp(gate_gen, gate_seed);
    const auto gate_form = cop::to_constrained_form(gate_inst);
    const auto gate_init = [&gate_inst](util::Rng& rng) {
      return cop::random_feasible(gate_inst, rng);
    };

    core::HyCimConfig sa_config;
    sa_config.sa.iterations = gate_iterations;
    sa_config.filter_mode = core::FilterMode::kSoftware;
    runtime::BatchParams sa_params;
    sa_params.restarts = 16;
    sa_params.seed = 9;
    sa_total += best_profit(
        gate_inst,
        runtime::solve_batch(gate_form, sa_config, gate_init, sa_params));

    core::HyCimConfig pt_config = sa_config;
    anneal::TemperingParams tempering;
    tempering.replicas = 4;
    pt_config.search = tempering;
    runtime::BatchParams pt_params = sa_params;
    pt_params.restarts = 4;
    pt_total += best_profit(
        gate_inst,
        runtime::solve_batch(gate_form, pt_config, gate_init, pt_params));

    core::HyCimConfig island_config = sa_config;
    anneal::ArchipelagoParams gate_ap;
    gate_ap.islands = 2;
    anneal::TemperingParams half_ladder;
    half_ladder.replicas = 2;
    gate_ap.roster = {half_ladder};
    gate_ap.migration_interval = 25;
    gate_ap.stagnation_epochs = 2;
    island_config.search = gate_ap;
    runtime::BatchParams island_params = sa_params;
    island_params.restarts = 4;
    island_total += best_profit(
        gate_inst, runtime::solve_batch(gate_form, island_config, gate_init,
                                        island_params));
  }
  const bool island_beats_sa = island_total >= sa_total;
  const bool island_beats_pt = island_total >= pt_total;
  std::cout << "[archipelago] equal_budget_gate: sa=" << sa_total
            << " tempering=" << pt_total << " island=" << island_total
            << " beats_sa=" << (island_beats_sa ? "yes" : "NO")
            << " beats_tempering=" << (island_beats_pt ? "yes" : "NO") << "\n";

  const runtime::PoolStats stats = pool.stats();
  std::cout << "[archipelago] budget=" << budget
            << " workers=" << stats.workers_alive
            << " spawned=" << stats.threads_spawned
            << " utilization=" << stats.utilization << "\n";

  bool all_identical = true;
  std::ofstream json_out(json_path);
  util::JsonWriter json(json_out);
  json.begin_object();
  json.key("bench").value("archipelago_scaling");
  json.key("protocol").begin_object();
  json.key("items").value(cli.get_int("items"));
  json.key("runs").value(static_cast<long long>(params.restarts));
  json.key("islands").value(static_cast<long long>(ap.islands));
  json.key("iterations").value(cli.get_int("iterations"));
  json.key("migration_interval").value(cli.get_int("migration_interval"));
  json.key("gate_items").value(cli.get_int("gate_items"));
  json.key("gate_instances").value(cli.get_int("gate_instances"));
  json.key("gate_iterations").value(cli.get_int("gate_iterations"));
  json.key("seed").value(cli.get_int("seed"));
  json.end();
  json.key("measurements").begin_array();
  for (const Measurement& m : rows) {
    all_identical = all_identical && m.identical;
    json.begin_object();
    json.key("label").value(m.label);
    json.key("identical_to_serial").value(m.identical);
    json.key("tasks_executed").value(m.tasks);
    json.key("migrations_proposed")
        .value(static_cast<long long>(m.migrations_proposed));
    json.key("migrations_accepted")
        .value(static_cast<long long>(m.migrations_accepted));
    json.key("resamples").value(static_cast<long long>(m.resamples));
    json.key("respaces").value(static_cast<long long>(m.respaces));
    json.key("wall_seconds").value(m.wall_seconds);
    json.end();
  }
  json.end();
  json.key("gate").begin_object();
  json.key("sa_profit").value(sa_total);
  json.key("tempering_profit").value(pt_total);
  json.key("island_profit").value(island_total);
  json.key("island_beats_sa").value(island_beats_sa);
  json.key("island_beats_tempering").value(island_beats_pt);
  json.end();
  json.key("pool").begin_object();
  json.key("budget").value(static_cast<long long>(budget));
  json.key("threads_spawned")
      .value(static_cast<long long>(stats.threads_spawned));
  json.key("utilization").value(stats.utilization);
  json.end();
  json.end();  // root

  std::cout << "Machine-readable results in " << json_path.string() << ".\n";
  // Shape check: scheduling must never change results, and the island
  // model must pay for itself at equal budget.
  return (all_identical && island_beats_sa && island_beats_pt) ? 0 : 1;
}
