// Reproduces paper Fig. 10 / Sec. 4.3: QKP solving efficiency of HyCiM vs
// the D-QUBO implementation.
//
// Paper protocol: 40 instances x 1000 Monte Carlo initial configurations x
// 100 SA runs x 1000 iterations; success = reaching 95% of the optimum.
// That is ~4M SA runs — this harness runs the identical pipeline with
// scaled-down defaults (CLI-overridable) and reports the same statistics:
// per-instance success rates, the overall averages, and the normalized-
// value scatter (CSV) that Fig. 10 plots.
//
// The whole sweep executes on the batch runner: the *instance* loop is a
// run_batch fan (one forked stream per instance — no shared util::Rng
// anywhere), and within an instance the init/run protocol proceeds on that
// instance's stream with inner batches kept serial.  Results are
// bit-reproducible from the suite seed at any --threads count and ordered
// aggregation (CSV rows, tables, JSON) happens after the fan joins.
//
// --strategy picks the HyCiM search engine at equal QUBO-computation
// budget: `sa` (default) fans --runs independent cooled walks per init;
// `tempering` runs --runs / --replicas replica-exchange ensembles of
// --replicas walks each; `island` runs --runs / (--islands × --replicas)
// archipelagos of --islands replica-exchange islands with ring migration —
// so every strategy spends runs × iterations QUBO computations per init.
// D-QUBO always runs the plain SA fan — it is the baseline.
//
// Results are emitted machine-readably (default BENCH_fig10.json:
// per-config success rate, QUBO computations, wall time) so successive
// PRs can diff the performance trajectory.
//
// HyCiM requests go through the serving front door (service::Service): the
// per-instance chip is fabricated once and served from the programmed-chip
// cache for every following init — the "program once, solve many"
// amortization, bit-identical to refabricating per init.  The fixed
// Monte-Carlo x0 of each init rides the request's init override.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/dqubo_solver.hpp"
#include "core/metrics.hpp"
#include "core/reference.hpp"
#include "hycim.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hycim;

/// Per-solver, per-instance accumulators for the JSON artifact.
struct SolverStats {
  util::OnlineStats norms;
  double success_rate = 0.0;
  double trapped_rate = 0.0;
  std::size_t qubo_computations = 0;
  std::size_t proposals = 0;
  double wall_seconds = 0.0;
};

/// One init's scatter point per solver (the CSV rows, buffered so the
/// parallel instance fan can emit them in deterministic order afterwards).
struct InitRow {
  double hycim_norm = 0.0;
  bool hycim_feasible = false;
  double dqubo_norm = 0.0;
  bool dqubo_feasible = false;
};

/// Everything one instance task produces.
struct InstanceOutcome {
  std::string name;
  long long reference = 0;
  SolverStats hycim, dqubo;
  std::size_t exchanges_accepted = 0;   ///< tempering observability
  std::size_t migrations_accepted = 0;  ///< island observability
  std::size_t resamples = 0;            ///< stagnant islands reseeded
  /// The per-flip kernel the instance's chip runs (its matrix's density
  /// picks it: the paper's density-25 rows go sparse, 50 and up stay
  /// dense).
  qubo::Kernel kernel = qubo::Kernel::kDense;
  std::vector<InitRow> rows;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("fig10_solving_efficiency",
                "Fig. 10: success rate of HyCiM vs D-QUBO on the QKP suite");
  cli.add_int("instances", 40, "QKP instances (paper: 40)");
  cli.add_int("items", 100, "items per instance (paper: 100)");
  cli.add_int("inits", 10, "MC initial configurations (paper: 1000)");
  cli.add_int("runs", 100, "SA runs per initial configuration (paper: 100)");
  cli.add_int("iterations", 1000, "SA iterations per run");
  cli.add_int("threads", 0, "instance-fan threads (0 = all cores)");
  cli.add_bool("hardware_filter", true,
               "use the FeFET filter (false = exact software predicate)");
  cli.add_string("strategy", "sa",
                 "HyCiM search strategy: sa | tempering | island (equal QUBO "
                 "budget: tempering divides --runs by --replicas, island by "
                 "--islands x --replicas)");
  cli.add_int("replicas", 4, "tempering/island: replicas per ladder");
  cli.add_double("t_ratio", 0.05, "tempering/island: ladder span T_cold/T_hot");
  cli.add_int("exchange_interval", 25,
              "tempering/island: QUBO computations between exchange barriers");
  cli.add_int("islands", 5, "island: replica-exchange islands per archipelago");
  cli.add_int("migration_interval", 25,
              "island: QUBO computations between migration barriers");
  cli.add_int("seed", 2024, "suite base seed");
  cli.add_string("csv", "fig10_normalized_values.csv", "scatter CSV path");
  cli.add_string("json", "BENCH_fig10.json", "machine-readable results path");
  cli.add_string("out", "",
                 "output directory for the CSV/JSON artifacts (created if "
                 "missing; empty = paths as given)");
  if (!cli.parse(argc, argv)) return 0;

  // --out redirects both artifacts into one directory — what the scheduled
  // CI bench job uses so the scaled-down run needs no code edits.
  std::filesystem::path csv_path = cli.get_string("csv");
  std::filesystem::path json_path = cli.get_string("json");
  if (!cli.get_string("out").empty()) {
    const std::filesystem::path out_dir = cli.get_string("out");
    std::filesystem::create_directories(out_dir);
    csv_path = out_dir / csv_path.filename();
    json_path = out_dir / json_path.filename();
  }

  auto suite = cop::generate_paper_suite(
      static_cast<std::size_t>(cli.get_int("items")),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto count = static_cast<std::size_t>(cli.get_int("instances"));
  if (suite.size() > count) suite.resize(count);

  const auto inits = static_cast<std::size_t>(cli.get_int("inits"));
  const auto runs = static_cast<std::size_t>(cli.get_int("runs"));
  const auto iterations = static_cast<std::size_t>(cli.get_int("iterations"));
  const auto threads = static_cast<unsigned>(cli.get_int("threads"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const std::string strategy = cli.get_string("strategy");
  if (strategy != "sa" && strategy != "tempering" && strategy != "island") {
    std::cerr << "unknown --strategy '" << strategy
              << "' (expected sa | tempering | island)\n";
    return 2;
  }
  const bool tempering = strategy == "tempering";
  const bool island = strategy == "island";
  anneal::TemperingParams tempering_params;
  tempering_params.replicas =
      static_cast<std::size_t>(cli.get_int("replicas"));
  tempering_params.t_ratio = cli.get_double("t_ratio");
  tempering_params.exchange_interval =
      static_cast<std::size_t>(cli.get_int("exchange_interval"));
  // --strategy island: every island runs the same replica-exchange ladder
  // (the tempering knobs), coupled by ring migration — so the island run
  // isolates the archipelago machinery against plain tempering at the same
  // ladder shape.
  anneal::ArchipelagoParams island_params;
  island_params.islands = static_cast<std::size_t>(cli.get_int("islands"));
  island_params.roster = {tempering_params};
  island_params.migration_interval =
      static_cast<std::size_t>(cli.get_int("migration_interval"));
  island_params.stagnation_epochs = 2;
  // Equal-budget restart fan: R-replica ensembles (or N×R-replica
  // archipelagos) each cost that many walks, so the division must be exact
  // or the comparison is silently biased.
  const std::size_t walks_per_restart =
      island ? anneal::total_replicas(island_params)
             : (tempering ? tempering_params.replicas : 1);
  if (runs % walks_per_restart != 0) {
    std::cerr << "--strategy " << strategy << " needs --runs divisible by "
              << walks_per_restart << " (the equal-QUBO-budget comparison "
                 "replaces that many SA walks by one restart); got --runs "
              << runs << "\n";
    return 2;
  }
  const std::size_t hycim_restarts = runs / walks_per_restart;

  std::cout << "Fig. 10 reproduction: " << suite.size() << " instances x "
            << inits << " inits x " << runs << " runs x " << iterations
            << " iterations (paper: 40 x 1000 x 100 x 1000)\n"
            << "HyCiM strategy: " << strategy;
  if (tempering) {
    std::cout << " (" << hycim_restarts << " ensembles x "
              << tempering_params.replicas << " replicas per init — equal "
              << "QUBO budget)";
  } else if (island) {
    std::cout << " (" << hycim_restarts << " archipelagos x "
              << island_params.islands << " islands x "
              << tempering_params.replicas << " replicas per init — equal "
              << "QUBO budget)";
  }
  std::cout << "\nProtocol (paper Sec. 4.3): per initial configuration, the "
               "recorded QKP value\nis the best over the SA runs; success = "
               "reaching " << core::kSuccessFraction * 100
            << "% of the best-known value.\n\n";

  // One session for the whole sweep: per instance, the first init programs
  // the chip and the remaining inits hit the cache.  The session is
  // thread-safe, so the instance fan shares it; capacity covers the suite
  // so parallel instances cannot evict each other's chips.
  service::Service service(service::ServiceConfig{
      .chip_cache_capacity = suite.size(), .workers = 1});

  // The instance fan: one forked stream per instance drives every draw of
  // that instance's protocol (Monte-Carlo x0s, D-QUBO initials), so the
  // sweep is bit-identical for any --threads.
  std::vector<InstanceOutcome> outcomes(suite.size());
  runtime::BatchParams fan;
  fan.restarts = suite.size();
  fan.threads = threads;
  fan.seed = seed;
  const auto fan_start = std::chrono::steady_clock::now();
  runtime::run_batch(fan, [&](std::size_t idx, util::Rng& rng) {
    const auto& inst = suite[idx];
    InstanceOutcome& out = outcomes[idx];
    out.name = inst.name;
    core::ReferenceParams ref_params;
    ref_params.seed = 5000 + idx;
    const auto reference = core::reference_solution(inst, ref_params);
    out.reference = reference.profit;

    core::HyCimConfig hconfig;
    hconfig.sa.iterations = iterations;
    hconfig.fidelity = cim::VmvMode::kQuantized;
    hconfig.filter_mode = cli.get_bool("hardware_filter")
                              ? core::FilterMode::kHardware
                              : core::FilterMode::kSoftware;
    hconfig.filter.fab_seed = 33 + idx;
    if (tempering) hconfig.search = tempering_params;
    if (island) hconfig.search = island_params;

    core::DquboConfig dconfig;
    dconfig.sa.iterations = iterations;
    dconfig.fidelity = cim::VmvMode::kQuantized;
    core::DquboSolver dqubo(inst, dconfig);

    // Per initial configuration: best value over the SA runs (the paper
    // records "the QKP values they can obtain" from 100 runs per init).
    std::vector<long long> hycim_values, dqubo_values;
    std::size_t hycim_infeasible = 0, dqubo_infeasible = 0;
    out.rows.resize(inits);
    for (std::size_t init = 0; init < inits; ++init) {
      const auto x0 = cop::random_feasible(inst, rng);
      util::Rng dq_rng(rng.next_u64());
      const auto xy0 = dqubo.random_initial(dq_rng);

      runtime::BatchParams batch;
      batch.restarts = hycim_restarts;
      batch.threads = 1;  // parallelism lives in the instance fan
      batch.seed = (seed + idx) * 100000 + init;

      // HyCiM: the restart fan over the fixed x0 through the front door.
      // The per-init value is the best *exact* profit over the runs (the
      // paper records QKP values, not quantized eval energies, which rank
      // runs slightly differently once the 7-bit scale is non-integer).
      service::Request h_request;
      h_request.instance = inst;
      h_request.config = hconfig;
      h_request.batch = batch;
      h_request.init = [&x0](util::Rng&) { return x0; };
      const auto h_batch = service.solve(h_request).batch;
      long long h_profit = 0;
      bool h_feasible = false;
      for (const auto& run : h_batch.runs) {
        if (!run.feasible) continue;
        h_feasible = true;
        h_profit = std::max(h_profit, inst.total_profit(run.best_x));
      }
      out.hycim.qubo_computations += h_batch.total_evaluated;
      out.hycim.proposals += h_batch.total_proposed;
      out.hycim.wall_seconds += h_batch.wall_seconds;
      out.exchanges_accepted += h_batch.total_exchanges_accepted;
      out.migrations_accepted += h_batch.total_migrations_accepted;
      out.resamples += h_batch.total_resamples;
      out.kernel = h_batch.kernel;

      // D-QUBO: the plain SA fan through the generic runner (the solver is
      // stateless across solve() calls in quantized fidelity) — always the
      // full --runs baseline budget.
      runtime::BatchParams d_params = batch;
      d_params.restarts = runs;
      const auto d_batch = runtime::run_batch(
          d_params, [&](std::size_t, util::Rng& run_rng) {
            const auto r = dqubo.solve(xy0, run_rng.next_u64());
            runtime::RunRecord record;
            record.best_x = r.best_x;
            record.best_energy =
                r.feasible ? -static_cast<double>(r.profit) : 0.0;
            record.feasible = r.feasible;
            record.evaluated = r.sa.evaluated;
            record.proposed = r.sa.proposed;
            return record;
          });
      out.dqubo.qubo_computations += d_batch.total_evaluated;
      out.dqubo.proposals += d_batch.total_proposed;
      out.dqubo.wall_seconds += d_batch.wall_seconds;
      const long long d_best =
          d_batch.feasible
              ? static_cast<long long>(-d_batch.best_energy + 0.5)
              : 0;

      hycim_values.push_back(h_profit);
      dqubo_values.push_back(d_best);
      if (!h_feasible) ++hycim_infeasible;
      if (!d_batch.feasible) ++dqubo_infeasible;
      InitRow& row = out.rows[init];
      row.hycim_norm = core::normalized_value(h_profit, reference.profit);
      row.hycim_feasible = h_feasible;
      row.dqubo_norm = core::normalized_value(d_best, reference.profit);
      row.dqubo_feasible = d_batch.feasible;
      out.hycim.norms.add(row.hycim_norm);
      out.dqubo.norms.add(row.dqubo_norm);
    }
    out.hycim.success_rate =
        core::success_rate_percent(hycim_values, reference.profit);
    out.dqubo.success_rate =
        core::success_rate_percent(dqubo_values, reference.profit);
    const auto total = static_cast<double>(inits);
    out.hycim.trapped_rate = 100.0 * hycim_infeasible / total;
    out.dqubo.trapped_rate = 100.0 * dqubo_infeasible / total;
    return runtime::RunRecord{};  // outcomes[] carries the real payload
  });
  // The fan's own wall: per-instance walls overlap across the fan, so
  // their sum would grow with --threads.
  const double fan_wall_seconds = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      fan_start)
                                      .count();

  // Ordered aggregation after the fan joins: identical for any --threads.
  util::CsvWriter csv(csv_path.string(),
                      {"instance", "solver", "init", "run",
                       "normalized_value", "feasible"});
  util::Table table({"instance", "reference", "HyCiM succ %", "D-QUBO succ %",
                     "HyCiM trapped %", "D-QUBO trapped %"});

  std::ofstream json_out(json_path);
  util::JsonWriter json(json_out);
  json.begin_object();
  json.key("bench").value("fig10_solving_efficiency");
  json.key("protocol").begin_object();
  json.key("instances").value(static_cast<long long>(suite.size()));
  json.key("items").value(cli.get_int("items"));
  json.key("inits").value(static_cast<long long>(inits));
  json.key("runs").value(static_cast<long long>(runs));
  json.key("iterations").value(static_cast<long long>(iterations));
  json.key("hardware_filter").value(cli.get_bool("hardware_filter"));
  json.key("strategy").value(strategy);
  json.key("replicas")
      .value(static_cast<long long>(tempering_params.replicas));
  json.key("t_ratio").value(tempering_params.t_ratio);
  json.key("exchange_interval")
      .value(static_cast<long long>(tempering_params.exchange_interval));
  json.key("islands").value(static_cast<long long>(island_params.islands));
  json.key("migration_interval")
      .value(static_cast<long long>(island_params.migration_interval));
  json.key("seed").value(cli.get_int("seed"));
  json.key("threads").value(static_cast<long long>(threads));
  json.end();
  json.key("per_instance").begin_array();

  util::OnlineStats hycim_rates, dqubo_rates;
  util::OnlineStats hycim_norm, dqubo_norm;
  std::size_t exchanges_total = 0;
  std::size_t migrations_total = 0, resamples_total = 0;
  for (std::size_t idx = 0; idx < outcomes.size(); ++idx) {
    const InstanceOutcome& out = outcomes[idx];
    for (std::size_t init = 0; init < out.rows.size(); ++init) {
      const InitRow& row = out.rows[init];
      csv.row({static_cast<double>(idx), 0.0, static_cast<double>(init), 0.0,
               row.hycim_norm, row.hycim_feasible ? 1.0 : 0.0});
      csv.row({static_cast<double>(idx), 1.0, static_cast<double>(init), 0.0,
               row.dqubo_norm, row.dqubo_feasible ? 1.0 : 0.0});
      hycim_norm.add(row.hycim_norm);
      dqubo_norm.add(row.dqubo_norm);
    }
    hycim_rates.add(out.hycim.success_rate);
    dqubo_rates.add(out.dqubo.success_rate);
    exchanges_total += out.exchanges_accepted;
    migrations_total += out.migrations_accepted;
    resamples_total += out.resamples;
    table.add_row({out.name, util::Table::num(out.reference),
                   util::Table::num(out.hycim.success_rate, 1),
                   util::Table::num(out.dqubo.success_rate, 1),
                   util::Table::num(out.hycim.trapped_rate, 1),
                   util::Table::num(out.dqubo.trapped_rate, 1)});

    json.begin_object();
    json.key("name").value(out.name);
    json.key("reference").value(out.reference);
    for (const auto* entry : {&out.hycim, &out.dqubo}) {
      json.key(entry == &out.hycim ? "hycim" : "dqubo").begin_object();
      json.key("success_rate_percent").value(entry->success_rate);
      json.key("trapped_rate_percent").value(entry->trapped_rate);
      json.key("mean_normalized_value").value(entry->norms.mean());
      json.key("qubo_computations").value(entry->qubo_computations);
      json.key("proposals").value(entry->proposals);
      json.key("wall_seconds").value(entry->wall_seconds);
      if (entry == &out.hycim) {
        json.key("exchanges_accepted").value(out.exchanges_accepted);
        json.key("migrations_accepted").value(out.migrations_accepted);
        json.key("resamples").value(out.resamples);
        json.key("kernel").value(qubo::kernel_name(out.kernel));
      }
      json.end();
    }
    json.end();
  }
  json.end();  // per_instance
  table.print(std::cout);

  std::cout << "\nSummary vs. paper Sec. 4.3:\n";
  util::Table summary({"metric", "this run", "paper"});
  summary.add_row({"HyCiM avg success %",
                   util::Table::num(hycim_rates.mean(), 2), "98.54"});
  summary.add_row({"D-QUBO avg success %",
                   util::Table::num(dqubo_rates.mean(), 2), "10.75"});
  summary.add_row({"HyCiM mean normalized value",
                   util::Table::num(hycim_norm.mean(), 3), "~1.0"});
  summary.add_row({"D-QUBO mean normalized value",
                   util::Table::num(dqubo_norm.mean(), 3),
                   "low (trapped infeasible)"});
  summary.print(std::cout);

  const auto cache = service.cache_stats();
  std::cout << "\nChip cache (program once, solve many): " << cache.misses
            << " fabrications, " << cache.hits
            << " cache hits across the init fans.\n";
  if (tempering) {
    std::cout << "Tempering: " << exchanges_total
              << " accepted ladder exchanges across the sweep.\n";
  } else if (island) {
    std::cout << "Islands: " << exchanges_total
              << " accepted ladder exchanges, " << migrations_total
              << " adopted migrants, " << resamples_total
              << " stagnant islands reseeded across the sweep.\n";
  }

  json.key("summary").begin_object();
  json.key("strategy").value(strategy);
  json.key("hycim_avg_success_percent").value(hycim_rates.mean());
  json.key("dqubo_avg_success_percent").value(dqubo_rates.mean());
  json.key("hycim_mean_normalized_value").value(hycim_norm.mean());
  json.key("dqubo_mean_normalized_value").value(dqubo_norm.mean());
  json.key("wall_seconds").value(fan_wall_seconds);
  json.key("hycim_exchanges_accepted").value(exchanges_total);
  json.key("hycim_migrations_accepted").value(migrations_total);
  json.key("hycim_resamples").value(resamples_total);
  json.key("chip_cache_hits").value(cache.hits);
  json.key("chip_cache_misses").value(cache.misses);
  json.end();

  // The --threads sweep column: what the shared executor pool actually did
  // for this run.  Wall-clock observability only — results above are
  // bit-identical at any width (the determinism contract).
  const auto sched = service.stats();
  std::cout << "Scheduler: threads=" << threads << " budget="
            << sched.pool.budget << ", " << sched.pool.dispatches
            << " dispatches, " << sched.pool.tasks_executed << " tasks, "
            << sched.pool.steals << " steals, utilization "
            << sched.pool.utilization << ".\n";
  json.key("scheduler").begin_object();
  json.key("threads").value(static_cast<long long>(threads));
  json.key("budget").value(static_cast<long long>(sched.pool.budget));
  json.key("workers_alive")
      .value(static_cast<long long>(sched.pool.workers_alive));
  json.key("dispatches").value(sched.pool.dispatches);
  json.key("inline_runs").value(sched.pool.inline_runs);
  json.key("tasks_executed").value(sched.pool.tasks_executed);
  json.key("steals").value(sched.pool.steals);
  json.key("utilization").value(sched.pool.utilization);
  json.end();
  json.end();  // root

  std::cout << "\nScatter data in " << csv_path.string()
            << "; machine-readable results in " << json_path.string()
            << ".\n";
  // Shape check: HyCiM must dominate D-QUBO decisively.
  return hycim_rates.mean() > dqubo_rates.mean() + 30.0 ? 0 : 1;
}
