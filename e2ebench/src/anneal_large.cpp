// anneal_large — a few large instances solved directly through
// runtime::solve_tempered (R = 8) and runtime::solve_archipelago at the
// machine's width, with long walks: QKP n=400 at density 25 (sparse kernel)
// and 75 (dense kernel), and an MDKP with 8 resource rows, 2 incident per
// item (constraint incidence).  The filters are the exact software
// predicates: the modeled hardware filter admits infeasible configurations
// at this many columns.  Two restarts per batch, fewer than the cores, so
// any speedup beyond 2x has to come from below the run level.  One batch
// set is the unit of work: wall_s is its median wall clock and each batch
// call is one latency sample.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "cop/any_instance.hpp"
#include "cop/mdkp.hpp"
#include "cop/qkp.hpp"
#include "core/metrics.hpp"
#include "core/reference.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hycim;

constexpr std::size_t kItems = 400;
constexpr std::size_t kIterations = 30000;
constexpr std::size_t kRestarts = 2;
constexpr std::size_t kStrategies = 2;  // tempering, archipelago

/// One batch call of a batch set: an instance and a strategy.
struct BatchSpec {
  std::size_t instance;
  std::size_t strategy;
};
/// Both strategies on each QKP, tempering on the MDKP.  An odd number of
/// batch kinds keeps the latency median and p75 inside one kind's samples
/// instead of on the boundary between two kinds.
constexpr BatchSpec kBatches[] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}};

// The instances are fixed, so a seed changes the starts, fabrication and
// batch seeds but not the amount of work.
constexpr std::uint64_t kInstanceSeed = 2024;
constexpr std::uint64_t kSetupStream = 0x5345545550ULL;   // "SETUP"
constexpr std::uint64_t kBatchStream = 0x4241544348ULL;   // "BATCH"

anneal::TemperingParams tempering() {
  anneal::TemperingParams t;
  t.replicas = 8;
  t.exchange_interval = 500;
  t.record_trace = false;
  return t;
}

/// Four islands alternating single walks and 3-replica ladders: 8 replicas
/// in all, the same QUBO budget as the R = 8 tempering batch.
anneal::ArchipelagoParams archipelago() {
  anneal::TemperingParams ladder = tempering();
  ladder.replicas = 3;
  anneal::ArchipelagoParams a;
  a.islands = 4;
  a.roster = {anneal::SaSearch{}, ladder};
  a.migration_interval = 1000;
  a.record_trace = false;
  return a;
}

struct Instance {
  cop::AnyInstance inst;
  long long reference = 0;
  std::uint64_t fab_seed = 0;
};

/// The outcome of one batch call.
struct BatchOut {
  std::vector<RunKey> runs;
  std::vector<double> profits;  ///< per run; 0 when not exactly feasible
  std::size_t good_runs = 0;    ///< status ok and best exactly feasible
  bool ok = false;              ///< every run good
  double latency_s = 0.0;
  runtime::BatchResult counters;  ///< walk totals (runs dropped)
};

struct SetOut {
  double wall_s = 0.0;
  std::vector<BatchOut> batches;  ///< [instance × strategy]
};

enum class Path {
  kLibrary,  ///< the form overloads of solve_tempered / solve_archipelago
  kReplay,   ///< fabricate + run_batch over clones + solve, spans per layer
};

bool same_trajectories(const SetOut& a, const SetOut& b) {
  if (a.batches.size() != b.batches.size()) return false;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    if (a.batches[i].runs != b.batches[i].runs) return false;
  }
  return true;
}

/// Greedy, then multi-restart software SA (ideal energies, exact
/// feasibility) — the MDKP counterpart of core::reference_solution.
long long mdkp_reference(const cop::MdkpInstance& inst, std::uint64_t seed) {
  long long best = inst.total_profit(cop::greedy_solution(inst));
  const cop::LoweredProblem lowered = cop::lower(inst);
  core::HyCimConfig config;
  config.fidelity = cim::VmvMode::kIdeal;
  config.filter_mode = core::FilterMode::kSoftware;
  config.sa.iterations = core::ReferenceParams{}.sa_iterations;
  runtime::BatchParams params;
  params.restarts = core::ReferenceParams{}.sa_restarts;
  params.threads = 1;
  params.seed = seed;
  const auto batch =
      runtime::solve_batch(lowered.form, config, lowered.init, params);
  for (const auto& run : batch.runs) {
    if (run.feasible) best = std::max(best, inst.total_profit(run.best_x));
  }
  return best;
}

class AnnealLarge final : public Workload {
 public:
  void setup(const Options& options) override {
    const std::uint64_t seed = options.seed;
    batch_root_ = util::fork_seed(seed, kBatchStream);
    cop::QkpGeneratorParams sparse;
    sparse.n = kItems;
    sparse.density_percent = 25;
    cop::QkpGeneratorParams dense = sparse;
    dense.density_percent = 75;
    cop::MdkpGeneratorParams rows;
    rows.n = kItems;
    rows.dimensions = 8;
    rows.incident_dimensions = 2;
    rows.density_percent = 25;
    rows.tightness_lo = 0.6;
    rows.tightness_hi = 0.9;
    instances_.clear();
    instances_.push_back(
        {cop::generate_qkp(sparse, kInstanceSeed)});
    instances_.push_back(
        {cop::generate_qkp(dense, kInstanceSeed + 1)});
    instances_.push_back(
        {cop::generate_mdkp(rows, kInstanceSeed + 2)});
    // Reference values in setup: the oracle costs seconds per instance.
    runtime::BatchParams fan;
    fan.restarts = instances_.size();
    fan.seed = util::fork_seed(seed, kSetupStream);
    runtime::run_batch(fan, [&](std::size_t i, util::Rng& rng) {
      Instance& s = instances_[i];
      const std::uint64_t ref_seed = util::fork_seed(kInstanceSeed, i);
      if (const auto* qkp = std::get_if<cop::QkpInstance>(&s.inst)) {
        core::ReferenceParams params;
        params.seed = ref_seed;
        s.reference = core::reference_solution(*qkp, params).profit;
      } else {
        s.reference =
            mdkp_reference(std::get<cop::MdkpInstance>(s.inst), ref_seed);
      }
      s.fab_seed = rng.next_u64();
      return runtime::RunRecord{};
    });
    warm_pool();
  }

  Report measure(const Options& options) override {
    Report r;
    std::vector<double> walls, latencies_ms;
    std::size_t calls = 0, good_calls = 0;
    const auto start = Clock::now();
    const SetOut first = batch_set(Path::kLibrary, 0);
    SetOut current = first;
    for (;;) {
      walls.push_back(current.wall_s);
      for (const BatchOut& b : current.batches) {
        ++calls;
        latencies_ms.push_back(b.latency_s * 1e3);
        if (b.ok) ++good_calls;
      }
      if (!same_trajectories(first, current)) {
        r.fail_check("a repeated batch set differs from the first one");
      }
      if (seconds_since(start) >= options.seconds) break;
      current = batch_set(Path::kLibrary, 0);
    }
    double measured_s = 0.0;
    for (const double w : walls) measured_s += w;
    const Summary lat = summarize(latencies_ms);
    const Quality q = quality(first);
    r.attempted = calls;
    r.failed = calls - good_calls;
    r.add("wall_s", median(walls), "s");
    r.add("success_pct", q.success_pct, "%");
    r.add("norm_value", q.norm_value, "ratio");
    r.add("lat_p50_ms", lat.median, "ms");
    r.add("lat_p99_ms", lat.tail, "ms");
    r.add("goodput_rps", static_cast<double>(good_calls) / measured_s,
          "req/s");
    r.note("batch sets " + std::to_string(walls.size()) + ", batch calls " +
           std::to_string(calls));
    r.note(timing_line("lat (one solve_tempered/solve_archipelago call)", lat,
                       "ms"));
    r.note(fingerprint(first));
    for (std::size_t b = 0; b < first.batches.size(); ++b) {
      std::ostringstream line;
      const Instance& s = instances_[kBatches[b].instance];
      line << "batch " << cop::kind_name(s.inst) << "#"
           << kBatches[b].instance
           << (kBatches[b].strategy == 0 ? " tempered" : " archipelago")
           << ": " << first.batches[b].latency_s * 1e3
           << " ms, normalized run values";
      for (const double profit : first.batches[b].profits) {
        line << " " << profit / static_cast<double>(s.reference);
      }
      r.note(line.str());
    }
    return r;
  }

  Report traced(const Options& options) override {
    Report r;
    LayerMetrics lm;
    const auto pool_before = runtime::ExecutorPool::global().stats();
    const SetOut library = batch_set(Path::kLibrary, 0);
    lm.pool = pool_delta(pool_before, runtime::ExecutorPool::global().stats());

    const auto replays =
        replay_pair([&] { return batch_set(Path::kReplay, 0); });
    const SetOut& on = replays.on;
    if (!options.trace_out.empty()) write_spans(options.trace_out, replays.spans);
    if (!same_trajectories(library, replays.off) ||
        !same_trajectories(library, on)) {
      r.fail_check("the decomposed replay differs from the library batches");
    }

    // The dense tempered batch at width 1 against the machine's width.
    const BatchOut serial = solve_one(Path::kLibrary, 1, 0, 1);
    const BatchOut wide = solve_one(Path::kLibrary, 1, 0, 0);
    if (serial.runs != wide.runs) {
      r.fail_check("the tempered batch differs between width 1 and full width");
    }
    lm.rt_speedup = serial.latency_s / wide.latency_s;

    lm.add_spans(replays.spans);
    for (const BatchOut& b : on.batches) lm.add_batch(b.counters);
    lm.trace_overhead_pct = replays.overhead_pct;
    lm.emit(r);
    r.attempted = library.batches.size();
    r.failed = static_cast<std::size_t>(
        std::count_if(library.batches.begin(), library.batches.end(),
                      [](const BatchOut& b) { return !b.ok; }));
    r.note("library batch set " + std::to_string(library.wall_s) +
           " s, replay untraced " + std::to_string(replays.off_s / 2) +
           " s, traced " + std::to_string(replays.on_s / 2) + " s");
    r.note(fingerprint(library));
    return r;
  }

 private:
  struct Quality {
    double success_pct = 0.0;
    double norm_value = 0.0;
  };

  core::HyCimConfig config(const Instance& s, std::size_t strategy) const {
    core::HyCimConfig c;
    c.sa.iterations = kIterations;
    c.fidelity = cim::VmvMode::kQuantized;
    c.filter_mode = core::FilterMode::kSoftware;
    c.filter.fab_seed = s.fab_seed;
    if (strategy == 0) {
      c.search = tempering();
    } else {
      c.search = archipelago();
    }
    return c;
  }

  /// One batch call on instance i with strategy `strategy`.
  BatchOut solve_one(Path path, std::size_t i, std::size_t strategy,
                     unsigned width) const {
    const Instance& s = instances_[i];
    const cop::LoweredProblem lowered = [&] {
      const Span span("cop.lower", i);
      return cop::lower(s.inst);
    }();
    const core::HyCimConfig c = config(s, strategy);
    runtime::BatchParams params;
    params.restarts = kRestarts;
    params.threads = width;
    params.seed = util::fork_seed(batch_root_, i * kStrategies + strategy);

    BatchOut out;
    runtime::BatchResult batch;
    const auto t0 = Clock::now();
    if (path == Path::kLibrary) {
      batch = strategy == 0 ? runtime::solve_tempered(lowered.form, c,
                                                      lowered.init, params)
                            : runtime::solve_archipelago(lowered.form, c,
                                                         lowered.init, params);
    } else {
      batch = replay(i, lowered, c, params);
    }
    out.latency_s = seconds_since(t0);

    for (const auto& run : batch.runs) {
      const bool feasible = run.feasible && !run.best_x.empty() &&
                            lowered.form.feasible(run.best_x);
      const bool good = feasible && run.status == core::SolveStatus::kOk;
      out.profits.push_back(feasible ? lowered.score(run.best_x).value : 0.0);
      if (good) ++out.good_runs;
    }
    out.ok = out.good_runs == batch.runs.size() &&
             batch.status == core::SolveStatus::kOk;
    out.runs = run_keys(batch);
    batch.runs.clear();
    out.counters = std::move(batch);
    return out;
  }

  /// What the form overloads do, one layer call at a time: fabricate the
  /// prototype, then run_batch over per-run clones whose replica segments
  /// (and islands) are dispatched through a span-recording executor.
  runtime::BatchResult replay(std::size_t i, const cop::LoweredProblem& lowered,
                              const core::HyCimConfig& c,
                              const runtime::BatchParams& params) const {
    std::optional<core::HyCimSolver> prototype;
    {
      const Span span("fab.build", i);
      prototype.emplace(lowered.form, c);
    }
    const std::size_t replicas =
        std::holds_alternative<anneal::TemperingParams>(c.search)
            ? std::get<anneal::TemperingParams>(c.search).replicas
            : anneal::total_replicas(std::get<anneal::ArchipelagoParams>(c.search));
    auto& pool = runtime::ExecutorPool::global();
    const anneal::Executor run_fan = pool.executor(runtime::resolve_thread_count(
        params.threads, params.restarts * replicas));
    const anneal::Executor replica_fan = span_executor(pool.executor(0), i);
    const Span batch_span("rt.batch", i);
    const std::uint32_t parent = current_span();
    return runtime::run_batch(
        params,
        [&](std::size_t, util::Rng& rng) {
          std::uint64_t decision_seed = rng.next_u64();
          if (decision_seed == 0) decision_seed = 1;
          std::optional<core::HyCimSolver> solver;
          {
            const Span span("fab.clone", i, parent);
            solver.emplace(*prototype, decision_seed);
          }
          const qubo::BitVector x0 = lowered.init(rng);
          const Span span("walk.solve", i, parent);
          return record_of(solver->solve(x0, rng.next_u64(), replica_fan));
        },
        run_fan);
  }

  SetOut batch_set(Path path, unsigned width) const {
    SetOut out;
    const auto start = Clock::now();
    for (const BatchSpec& b : kBatches) {
      out.batches.push_back(solve_one(path, b.instance, b.strategy, width));
    }
    out.wall_s = seconds_since(start);
    return out;
  }

  /// Per batch call, like fig10 per init: the best run against the
  /// reference.
  Quality quality(const SetOut& set) const {
    Quality q;
    for (std::size_t b = 0; b < set.batches.size(); ++b) {
      const long long ref = instances_[kBatches[b].instance].reference;
      const auto& profits = set.batches[b].profits;
      const auto best = static_cast<long long>(
          *std::max_element(profits.begin(), profits.end()));
      if (core::is_success(best, ref)) q.success_pct += 1.0;
      q.norm_value += core::normalized_value(best, ref);
    }
    const auto calls = static_cast<double>(set.batches.size());
    q.success_pct *= 100.0 / calls;
    q.norm_value /= calls;
    return q;
  }

  static std::string fingerprint(const SetOut& set) {
    std::size_t proposals = 0, evals = 0, exchanges = 0, migrations = 0;
    for (const BatchOut& b : set.batches) {
      proposals += b.counters.total_proposed;
      evals += b.counters.total_evaluated;
      exchanges += b.counters.total_exchanges_accepted;
      migrations += b.counters.total_migrations_accepted;
    }
    std::ostringstream out;
    out << "fingerprint anneal_large: walk.proposals=" << proposals
        << " walk.qubo_evals=" << evals << " exchanges=" << exchanges
        << " walk.migrations=" << migrations << " dqubo.aux_vars=0";
    return out.str();
  }

  std::vector<Instance> instances_;
  std::uint64_t batch_root_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_anneal_large() {
  return std::make_unique<AnnealLarge>();
}

}  // namespace e2e
