// Scheduler scaling bench — the serving/scheduling perf trajectory
// (BENCH_sched.json).
//
// One tempered QKP batch (runs × R replica ensembles) executed through the
// shared runtime::ExecutorPool at widths 1, 2, and max, plus the
// old-scheduler emulation (runs strictly serial, replicas fanned R-wide) —
// the configuration ISSUE 7 replaced.  Three kinds of output:
//
//   * identity flags: the batch must be bit-identical at every width and
//     under the serial-over-runs schedule (the determinism contract) —
//     these are CI-pinned by tools/check_sched_regression.py;
//   * deterministic work counters: tasks executed per width are a pure
//     function of the protocol, so any drift is a scheduling bug;
//   * wall clocks + pool counters (dispatches, steals, utilization):
//     machine-dependent, reported for the trajectory, never failed on.
//
// Console emits one `[executor-pool]` line per width for the CI smoke
// grep, mirroring micro_kernels' `[word-parallel]` convention.
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
  std::size_t tasks = 0;      ///< pool tasks executed by this batch
  std::size_t dispatches = 0;
  std::size_t steals = 0;
  bool identical = true;      ///< batch bit-identical to the width-1 batch
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
        a.runs[r].exchange_trace != b.runs[r].exchange_trace) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("sched_scaling",
                "ExecutorPool cross-run×replica scaling on a tempered batch");
  cli.add_int("items", 60, "QKP items");
  cli.add_int("runs", 8, "tempered restarts per batch");
  cli.add_int("replicas", 4, "replicas per ensemble");
  cli.add_int("iterations", 2000, "SA iterations per replica");
  cli.add_int("exchange_interval", 100,
              "QUBO computations between exchange barriers");
  cli.add_int("seed", 2024, "instance + batch seed");
  cli.add_string("json", "BENCH_sched.json", "machine-readable results path");
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

  core::HyCimConfig config;
  config.sa.iterations = static_cast<std::size_t>(cli.get_int("iterations"));
  config.filter_mode = core::FilterMode::kSoftware;
  anneal::TemperingParams tempering;
  tempering.replicas = static_cast<std::size_t>(cli.get_int("replicas"));
  tempering.exchange_interval =
      static_cast<std::size_t>(cli.get_int("exchange_interval"));
  config.search = tempering;
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
  const auto measure = [&](const std::string& label, auto&& solve) {
    const runtime::PoolStats before = pool.stats();
    const auto start = std::chrono::steady_clock::now();
    const runtime::BatchResult batch = solve();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const runtime::PoolStats after = pool.stats();
    Measurement m;
    m.label = label;
    m.wall_seconds = wall;
    m.tasks = after.tasks_executed - before.tasks_executed;
    m.dispatches = after.dispatches - before.dispatches;
    m.steals = after.steals - before.steals;
    if (rows.empty()) {
      reference = batch;
    } else {
      m.identical = batches_identical(reference, batch);
    }
    rows.push_back(m);
    std::cout << "[executor-pool] " << label << ": " << wall << " s, "
              << m.tasks << " tasks, " << m.dispatches << " dispatches, "
              << m.steals << " steals, identical="
              << (m.identical ? "yes" : "NO") << "\n";
  };

  const auto tempered_at = [&](unsigned threads) {
    runtime::BatchParams p = params;
    p.threads = threads;
    return [&, p] { return runtime::solve_batch(prototype, init, p); };
  };
  measure("tempered_threads_1", tempered_at(1));
  measure("tempered_threads_2", tempered_at(2));
  measure("tempered_threads_max", tempered_at(0));

  // The pre-ISSUE-7 scheduler, emulated: runs strictly serial on the
  // caller, each run's replica segments fanned R-wide — what the ≥2x
  // cross-run win is measured against.
  measure("serial_over_runs", [&] {
    const anneal::Executor serial_runs = [](std::size_t count,
                                            const anneal::Task& task) {
      for (std::size_t i = 0; i < count; ++i) task(i);
    };
    return runtime::run_batch(
        params,
        [&](std::size_t, util::Rng& rng) {
          std::uint64_t decision_seed = rng.next_u64();
          if (decision_seed == 0) decision_seed = 1;
          core::HyCimSolver solver(prototype, decision_seed);
          const qubo::BitVector x0 = init(rng);
          core::SolveResult sr = solver.solve(
              x0, rng.next_u64(),
              pool.executor(static_cast<unsigned>(tempering.replicas)));
          runtime::RunRecord record;
          record.best_x = std::move(sr.best_x);
          record.best_energy = sr.best_energy;
          record.feasible = sr.feasible;
          record.evaluated = sr.sa.evaluated;
          record.exchange_trace = std::move(sr.exchange_trace);
          return record;
        },
        serial_runs);
  });

  const runtime::PoolStats stats = pool.stats();
  std::cout << "[executor-pool] budget=" << budget << " workers="
            << stats.workers_alive << " spawned=" << stats.threads_spawned
            << " utilization=" << stats.utilization << "\n";

  bool all_identical = true;
  std::ofstream json_out(json_path);
  util::JsonWriter json(json_out);
  json.begin_object();
  json.key("bench").value("sched_scaling");
  json.key("protocol").begin_object();
  json.key("items").value(cli.get_int("items"));
  json.key("runs").value(static_cast<long long>(params.restarts));
  json.key("replicas").value(static_cast<long long>(tempering.replicas));
  json.key("iterations").value(cli.get_int("iterations"));
  json.key("exchange_interval").value(cli.get_int("exchange_interval"));
  json.key("seed").value(cli.get_int("seed"));
  json.end();
  json.key("measurements").begin_array();
  for (const Measurement& m : rows) {
    all_identical = all_identical && m.identical;
    json.begin_object();
    json.key("label").value(m.label);
    json.key("identical_to_serial").value(m.identical);
    json.key("tasks_executed").value(m.tasks);
    json.key("wall_seconds").value(m.wall_seconds);
    json.key("dispatches").value(m.dispatches);
    json.key("steals").value(m.steals);
    json.end();
  }
  json.end();
  json.key("pool").begin_object();
  json.key("budget").value(static_cast<long long>(budget));
  json.key("threads_spawned")
      .value(static_cast<long long>(stats.threads_spawned));
  json.key("utilization").value(stats.utilization);
  json.end();
  json.end();  // root

  std::cout << "Machine-readable results in " << json_path.string() << ".\n";
  // Shape check: scheduling must never change results.
  return all_identical ? 0 : 1;
}
