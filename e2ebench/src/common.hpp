// Shared plumbing of the three workloads: the report every invocation
// prints, the per-layer metric set (identical names on every workload), and
// small helpers for timing, bit-identity checks, and pool counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "anneal/strategy.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/executor_pool.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {

namespace hc = hycim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the correctness verdict, the operation
/// counts behind fail_frac, the metrics, and human-readable lines.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { lines.push_back(std::move(line)); }
  /// A failed output check: the run is reported as not correct.
  void fail_check(const std::string& why) {
    correct = false;
    lines.push_back("CHECK FAILED: " + why);
  }
};

/// A workload: set up its seeded inputs, then either measure the
/// end-to-end metrics (untraced) or produce the per-layer breakdown
/// (traced).  setup() may be called several times; each call replaces the
/// inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(const Options& options) = 0;
  virtual Report measure(const Options& options) = 0;
  virtual Report traced(const Options& options) = 0;
};

std::unique_ptr<Workload> make_paper_sweep();
std::unique_ptr<Workload> make_anneal_large();
std::unique_ptr<Workload> make_service_mix();

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Spawns the shared pool's workers so no measured call pays for it.
void warm_pool();

/// The trajectory of one restart, compared bit for bit between the
/// untraced run and its decomposed, traced replay.
struct RunKey {
  std::vector<std::uint8_t> best_x;
  std::size_t proposed = 0;
  std::size_t evaluated = 0;
  bool operator==(const RunKey&) const = default;
};

std::vector<RunKey> run_keys(const hc::runtime::BatchResult& batch);

/// The copy of a solve outcome the decomposed replays hand back to
/// run_batch (the fields the comparisons and metrics read).
hc::runtime::RunRecord record_of(const hc::core::SolveResult& result);

/// Wraps an executor so every task it runs is a `walk.segment` span whose
/// parent is the span open where the executor was called — how the traced
/// run reaches replica segments and islands from outside the solver.
hc::anneal::Executor span_executor(hc::anneal::Executor inner,
                                   std::uint64_t item);

/// Scheduler counters accumulated between two snapshots of the pool.
struct PoolDelta {
  std::size_t dispatches = 0;
  std::size_t inline_runs = 0;
  std::size_t steals = 0;
  std::size_t parks = 0;
  double utilization = 0.0;  ///< Δbusy / (workers × Δup)
};

PoolDelta pool_delta(const hc::runtime::PoolStats& before,
                     const hc::runtime::PoolStats& after);

/// Every per-layer metric, with the same names on every workload.  A
/// layer the workload does not reach reports 0.
struct LayerMetrics {
  double cop_lower_s = 0.0;
  std::size_t cop_lower_calls = 0;
  double dqubo_build_s = 0.0;
  double dqubo_solve_s = 0.0;
  std::size_t dqubo_aux_vars = 0;
  double dqubo_norm_value = 0.0;
  double fab_build_s = 0.0;
  std::size_t fab_count = 0;
  double fab_clone_s = 0.0;
  std::size_t fab_clones = 0;
  double walk_solve_s = 0.0;
  double walk_barrier_s = 0.0;
  std::size_t walk_proposals = 0;
  std::size_t walk_qubo_evals = 0;
  std::size_t walk_exchanges_proposed = 0;
  std::size_t walk_exchanges_accepted = 0;
  std::size_t walk_migrations = 0;
  double rt_batch_s = 0.0;
  double rt_speedup = 0.0;
  PoolDelta pool;
  Summary svc_overhead_ms;
  Summary svc_batch_ms;
  double svc_cache_hit_ratio = 0.0;
  std::size_t svc_fabrications = 0;
  std::size_t svc_evictions = 0;
  std::size_t svc_retries = 0;
  std::size_t svc_degraded = 0;
  double svc_effective_threads_mean = 0.0;
  Summary svc_gen_late_ms;
  double trace_overhead_pct = 0.0;
  std::size_t spans = 0;

  /// Sums span self times into the layer fields: cop.lower, dqubo.build,
  /// dqubo.solve, fab.build, fab.clone, walk.solve + walk.segment, rt.*.
  void add_spans(const std::vector<SpanRecord>& spans);
  /// Adds the walk counters of one batch.
  void add_batch(const hc::runtime::BatchResult& batch);
  /// Appends every per-layer metric to the report.
  void emit(Report& report) const;
};

/// A decomposed replay run untraced and traced, twice each in alternation
/// so that warm-up lands on neither side: the last result of each kind, the
/// spans of the last traced pass, and the tracing overhead from the summed
/// wall clocks.
template <class Out>
struct ReplayPair {
  Out off;
  Out on;
  std::vector<SpanRecord> spans;
  double off_s = 0.0;
  double on_s = 0.0;
  double overhead_pct = 0.0;
};

template <class Fn>
auto replay_pair(Fn&& replay) -> ReplayPair<decltype(replay())> {
  ReplayPair<decltype(replay())> pair;
  for (int round = 0; round < 2; ++round) {
    set_tracing(false);
    auto start = Clock::now();
    pair.off = replay();
    pair.off_s += seconds_since(start);
    set_tracing(true);
    start = Clock::now();
    pair.on = replay();
    pair.on_s += seconds_since(start);
    set_tracing(false);
    pair.spans = collect_spans();
  }
  pair.overhead_pct = (pair.on_s - pair.off_s) / pair.off_s * 100.0;
  return pair;
}

/// The human-readable line of one timing summary.
std::string timing_line(const std::string& name, const Summary& s,
                        const std::string& unit);

}  // namespace e2e
