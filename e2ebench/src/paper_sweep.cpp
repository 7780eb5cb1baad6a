// paper_sweep — the Fig. 10 protocol (HyCiM DAC'24, Sec. 4.3) on the
// 40-instance paper suite: QKP n=100 at densities 25/50/75/100, quantized
// energies, hardware filters, a fixed Monte-Carlo x0 per init.  HyCiM goes
// through service::Service::solve (program once per instance, solve many
// inits); the D-QUBO baseline goes through core::DquboSolver + run_batch.
// The instance fans run at the machine's width.  One sweep is the unit of
// work: wall_s is the median sweep wall clock and each HyCiM request is one
// latency sample.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "cop/any_instance.hpp"
#include "cop/qkp.hpp"
#include "core/dqubo_solver.hpp"
#include "core/metrics.hpp"
#include "core/reference.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hycim;

constexpr std::size_t kItems = 100;
constexpr std::size_t kInits = 5;
constexpr std::size_t kRuns = 16;
constexpr std::size_t kIterations = 1000;
/// Enough HyCiM requests per run that p99 has ten samples beyond it.
constexpr std::size_t kMinRequests = 1000;
/// The fig10 shape check: HyCiM success must beat D-QUBO by this margin.
constexpr double kShapeMarginPct = 30.0;

// The suite is the repository's fixed paper suite (the paper, too, sweeps
// one fixed set of 40 instances), so a seed changes the Monte-Carlo starts,
// fabrication and batch seeds but not the amount of work.
constexpr std::uint64_t kSuiteSeed = 2024;
constexpr std::uint64_t kReferenceSeed = 5000;
// Streams forked off the workload seed.
constexpr std::uint64_t kSetupStream = 0x5345545550ULL;  // "SETUP"
constexpr std::uint64_t kBatchStream = 0x4241544348ULL;  // "BATCH"

struct Instance {
  cop::QkpInstance inst;
  long long reference = 0;
  std::vector<qubo::BitVector> x0;  ///< fixed Monte-Carlo start per init
  std::uint64_t dqubo_seed = 0;     ///< D-QUBO initial-assignment stream
  std::uint64_t fab_seed = 0;
};

struct InitOutcome {
  std::vector<RunKey> hycim_runs;
  std::vector<RunKey> dqubo_runs;
  long long hycim_profit = 0;  ///< best exact profit over feasible runs
  long long dqubo_profit = 0;  ///< 0 when every D-QUBO run is trapped
  bool ok = false;  ///< status ok/degraded and the reported best is feasible
  double latency_s = 0.0;  ///< Service::solve call (front-door path only)
  double batch_s = 0.0;    ///< Reply::batch.wall_seconds
  unsigned effective_threads = 0;
};

struct InstanceOutcome {
  std::vector<InitOutcome> inits;
  std::size_t aux_vars = 0;  ///< D-QUBO variables beyond the n items
  runtime::BatchResult walk;  ///< HyCiM walk counters summed over inits
  std::size_t dqubo_proposals = 0;
};

struct SweepOut {
  double wall_s = 0.0;
  std::vector<InstanceOutcome> instances;
  service::ServiceStats service;
};

enum class Path {
  kService,  ///< HyCiM through Service::solve
  kReplay,   ///< its documented equivalent, one span per layer call
};

bool same_trajectories(const SweepOut& a, const SweepOut& b) {
  if (a.instances.size() != b.instances.size()) return false;
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    const auto& x = a.instances[i].inits;
    const auto& y = b.instances[i].inits;
    if (x.size() != y.size()) return false;
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (x[k].hycim_runs != y[k].hycim_runs ||
          x[k].dqubo_runs != y[k].dqubo_runs) {
        return false;
      }
    }
  }
  return true;
}

class PaperSweep final : public Workload {
 public:
  void setup(const Options& options) override {
    const std::uint64_t seed = options.seed;
    batch_root_ = util::fork_seed(seed, kBatchStream);
    auto qkps = cop::generate_paper_suite(kItems, kSuiteSeed);
    suite_.assign(qkps.size(), Instance{});
    all_.clear();
    for (std::size_t i = 0; i < qkps.size(); ++i) all_.push_back(i);
    // Reference values (the oracle is kept out of the timed phase) and the
    // per-init starts, on the instance fan.
    runtime::BatchParams fan;
    fan.restarts = qkps.size();
    fan.seed = util::fork_seed(seed, kSetupStream);
    runtime::run_batch(fan, [&](std::size_t i, util::Rng& rng) {
      Instance& s = suite_[i];
      s.inst = std::move(qkps[i]);
      core::ReferenceParams params;
      params.seed = kReferenceSeed + i;
      s.reference = core::reference_solution(s.inst, params).profit;
      for (std::size_t init = 0; init < kInits; ++init) {
        s.x0.push_back(cop::random_feasible(s.inst, rng));
      }
      s.dqubo_seed = rng.next_u64();
      s.fab_seed = rng.next_u64();
      return runtime::RunRecord{};
    });
    warm_pool();
  }

  Report measure(const Options& options) override {
    Report r;
    std::vector<double> walls, latencies_ms;
    std::size_t requests = 0, good = 0;
    const auto start = Clock::now();
    const SweepOut first = sweep(Path::kService, all_, 0);
    SweepOut current = first;
    for (;;) {
      walls.push_back(current.wall_s);
      for (const auto& inst : current.instances) {
        for (const InitOutcome& o : inst.inits) {
          ++requests;
          latencies_ms.push_back(o.latency_s * 1e3);
          if (o.ok) ++good;
        }
      }
      if (!same_trajectories(first, current)) {
        r.fail_check("a repeated sweep differs from the first one");
      }
      if (seconds_since(start) >= options.seconds &&
          requests >= kMinRequests) {
        break;
      }
      current = sweep(Path::kService, all_, 0);
    }
    double measured_s = 0.0;
    for (const double w : walls) measured_s += w;
    const Summary lat = summarize(latencies_ms);
    const Quality q = quality(first);

    r.attempted = requests;
    r.failed = requests - good;
    r.add("wall_s", median(walls), "s");
    r.add("success_pct", q.success_pct, "%");
    r.add("norm_value", q.norm_value, "ratio");
    r.add("lat_p50_ms", lat.median, "ms");
    r.add("lat_p99_ms", lat.tail, "ms");
    r.add("goodput_rps", static_cast<double>(good) / measured_s, "req/s");
    r.note("sweeps " + std::to_string(walls.size()) + ", HyCiM requests " +
           std::to_string(requests));
    r.note(timing_line("lat (Service::solve per init)", lat, "ms"));
    r.note("dqubo_norm_value " + std::to_string(q.dqubo_norm_value) +
           " ratio; D-QUBO success " + std::to_string(q.dqubo_success_pct) +
           " %");
    r.note(fingerprint(first));
    check_quality(q, r);
    return r;
  }

  Report traced(const Options& options) override {
    Report r;
    LayerMetrics lm;
    // The untraced front-door sweep: service and pool counters, and the
    // trajectories the replays must reproduce.
    const auto pool_before = runtime::ExecutorPool::global().stats();
    const SweepOut front = sweep(Path::kService, all_, 0);
    lm.pool = pool_delta(pool_before, runtime::ExecutorPool::global().stats());

    const auto replays =
        replay_pair([&] { return sweep(Path::kReplay, all_, 0); });
    const SweepOut& on = replays.on;
    if (!options.trace_out.empty()) write_spans(options.trace_out, replays.spans);
    if (!same_trajectories(front, replays.off) ||
        !same_trajectories(front, on)) {
      r.fail_check("the decomposed replay differs from Service::solve");
    }

    // The instance fan at width 1 against the machine's width, on two
    // instances per density.
    const std::vector<std::size_t> panel = {0, 1, 10, 11, 20, 21, 30, 31};
    const SweepOut serial = sweep(Path::kService, panel, 1);
    const SweepOut wide = sweep(Path::kService, panel, 0);
    if (!same_trajectories(serial, wide)) {
      r.fail_check("the instance fan differs between width 1 and full width");
    }
    lm.rt_speedup = serial.wall_s / wide.wall_s;

    lm.add_spans(replays.spans);
    std::vector<double> overhead_ms, batch_ms;
    double threads = 0.0;
    std::size_t good = 0, requests = 0;
    for (const InstanceOutcome& inst : on.instances) {
      lm.add_batch(inst.walk);
      lm.dqubo_aux_vars += inst.aux_vars;
    }
    for (const InstanceOutcome& inst : front.instances) {
      for (const InitOutcome& o : inst.inits) {
        ++requests;
        if (o.ok) ++good;
        overhead_ms.push_back((o.latency_s - o.batch_s) * 1e3);
        batch_ms.push_back(o.batch_s * 1e3);
        threads += o.effective_threads;
      }
    }
    const Quality q = quality(front);
    lm.dqubo_norm_value = q.dqubo_norm_value;
    lm.svc_overhead_ms = summarize(overhead_ms);
    lm.svc_batch_ms = summarize(batch_ms);
    const auto& cache = front.service.cache;
    lm.svc_cache_hit_ratio = static_cast<double>(cache.hits) /
                             static_cast<double>(cache.hits + cache.misses);
    lm.svc_fabrications = cache.misses;
    lm.svc_evictions = cache.evictions;
    lm.svc_retries = front.service.retries;
    lm.svc_degraded = front.service.degraded;
    lm.svc_effective_threads_mean = threads / static_cast<double>(requests);
    lm.trace_overhead_pct = replays.overhead_pct;
    lm.emit(r);
    r.attempted = requests;
    r.failed = requests - good;
    r.note("front-door sweep " + std::to_string(front.wall_s) +
           " s, replay untraced " + std::to_string(replays.off_s / 2) +
           " s, traced " + std::to_string(replays.on_s / 2) + " s");
    r.note(fingerprint(front));
    check_quality(q, r);
    return r;
  }

 private:
  struct Quality {
    double success_pct = 0.0;
    double norm_value = 0.0;
    double dqubo_success_pct = 0.0;
    double dqubo_norm_value = 0.0;
  };

  core::HyCimConfig hycim_config(const Instance& s) const {
    core::HyCimConfig config;
    config.sa.iterations = kIterations;
    config.fidelity = cim::VmvMode::kQuantized;
    config.filter_mode = core::FilterMode::kHardware;
    config.filter.fab_seed = s.fab_seed;
    return config;
  }

  static core::DquboConfig dqubo_config() {
    core::DquboConfig config;
    config.sa.iterations = kIterations;
    config.fidelity = cim::VmvMode::kQuantized;
    return config;
  }

  /// Service::solve's documented equivalent: lower → fabricate on the
  /// first init (the cache miss) → clone + retarget the prototype →
  /// run_batch over per-run clones + solve.
  runtime::BatchResult replay(
      const Instance& s, std::size_t idx, const core::HyCimConfig& config,
      const qubo::BitVector& x0, const runtime::BatchParams& batch,
      std::unique_ptr<const core::HyCimSolver>& chip) const {
    cop::LoweredProblem lowered = [&] {
      const Span span("cop.lower", idx);
      return cop::lower(s.inst);
    }();
    if (!chip) {
      const Span span("fab.build", idx);
      chip = std::make_unique<const core::HyCimSolver>(lowered.form, config);
    }
    std::optional<core::HyCimSolver> prototype;
    {
      const Span span("fab.clone", idx);
      prototype.emplace(*chip, 0);
      prototype->retarget_solve(config);
    }
    const Span batch_span("rt.batch", idx);
    const std::uint32_t parent = current_span();
    return runtime::run_batch(batch, [&](std::size_t, util::Rng& rng) {
      std::uint64_t decision_seed = rng.next_u64();
      if (decision_seed == 0) decision_seed = 1;
      std::optional<core::HyCimSolver> solver;
      {
        const Span span("fab.clone", idx, parent);
        solver.emplace(*prototype, decision_seed);
      }
      const Span span("walk.solve", idx, parent);
      return record_of(solver->solve(x0, rng.next_u64()));
    });
  }

  SweepOut sweep(Path path, const std::vector<std::size_t>& subset,
                 unsigned width) const {
    SweepOut out;
    out.instances.resize(subset.size());
    service::Service service(service::ServiceConfig{
        .chip_cache_capacity = subset.size(), .workers = 1});
    runtime::BatchParams fan;
    fan.restarts = subset.size();
    fan.threads = width;
    fan.seed = batch_root_;
    const auto start = Clock::now();
    // Two instance fans: HyCiM first, then the D-QUBO baseline, so HyCiM
    // request latencies are not measured against the baseline's large
    // penalty-matrix builds running on the other cores.
    for (const bool baseline : {false, true}) {
      const Span fan_span("rt.fan", baseline ? 1 : 0);
      const std::uint32_t fan_id = current_span();
      runtime::run_batch(fan, [&](std::size_t k, util::Rng&) {
        const std::size_t idx = subset[k];
        const Span instance_span("bench.instance", idx, fan_id);
        if (baseline) {
          run_dqubo(idx, out.instances[k]);
        } else {
          run_hycim(path, idx, service, out.instances[k]);
        }
        return runtime::RunRecord{};
      });
    }
    out.wall_s = seconds_since(start);
    out.service = service.stats();
    return out;
  }

  runtime::BatchParams batch_params(std::size_t idx, std::size_t init) const {
    runtime::BatchParams batch;
    batch.restarts = kRuns;
    batch.threads = 1;  // parallelism lives in the instance fan
    batch.seed = util::fork_seed(batch_root_, idx * kInits + init);
    return batch;
  }

  void run_hycim(Path path, std::size_t idx, service::Service& service,
                 InstanceOutcome& out) const {
    const Instance& s = suite_[idx];
    const core::HyCimConfig config = hycim_config(s);
    std::unique_ptr<const core::HyCimSolver> chip;  // replay's "cache"
    out.inits.resize(kInits);
    for (std::size_t init = 0; init < kInits; ++init) {
      InitOutcome& o = out.inits[init];
      const qubo::BitVector& x0 = s.x0[init];
      const runtime::BatchParams batch = batch_params(idx, init);
      runtime::BatchResult h;
      bool status_ok = false;
      try {
        if (path == Path::kService) {
          service::Request request;
          request.instance = s.inst;
          request.config = config;
          request.batch = batch;
          request.init = [&x0](util::Rng&) { return x0; };
          const auto t0 = Clock::now();
          service::Reply reply = service.solve(request);
          o.latency_s = seconds_since(t0);
          o.batch_s = reply.batch.wall_seconds;
          o.effective_threads = reply.effective_threads;
          status_ok = reply.status == core::SolveStatus::kOk ||
                      reply.status == core::SolveStatus::kDegraded;
          h = std::move(reply.batch);
        } else {
          h = replay(s, idx, config, x0, batch, chip);
          status_ok = h.status == core::SolveStatus::kOk;
        }
      } catch (const std::exception&) {
        status_ok = false;
      }
      o.hycim_runs = run_keys(h);
      for (const auto& run : h.runs) {
        if (run.feasible) {
          o.hycim_profit = std::max(o.hycim_profit,
                                    s.inst.total_profit(run.best_x));
        }
      }
      o.ok = status_ok && h.feasible && !h.best_x.empty() &&
             s.inst.feasible(h.best_x);
      out.walk.total_proposed += h.total_proposed;
      out.walk.total_evaluated += h.total_evaluated;
    }
  }

  /// The D-QUBO baseline: the plain SA fan on the penalty form, from one
  /// random initial assignment per init.
  void run_dqubo(std::size_t idx, InstanceOutcome& out) const {
    const Instance& s = suite_[idx];
    core::DquboSolver dqubo = [&] {
      const Span span("dqubo.build", idx);
      return core::DquboSolver(s.inst, dqubo_config());
    }();
    out.aux_vars = dqubo.size() - s.inst.n;
    util::Rng dqubo_rng(s.dqubo_seed);
    for (std::size_t init = 0; init < kInits; ++init) {
      InitOutcome& o = out.inits[init];
      const qubo::BitVector xy0 = dqubo.random_initial(dqubo_rng);
      const auto d = runtime::run_batch(
          batch_params(idx, init), [&](std::size_t, util::Rng& rng) {
            const Span span("dqubo.solve", idx);
            const auto result = dqubo.solve(xy0, rng.next_u64());
            runtime::RunRecord record;
            record.best_x = result.best_x;
            record.best_energy =
                result.feasible ? -static_cast<double>(result.profit) : 0.0;
            record.feasible = result.feasible;
            record.evaluated = result.sa.evaluated;
            record.proposed = result.sa.proposed;
            return record;
          });
      o.dqubo_runs = run_keys(d);
      o.dqubo_profit = d.feasible ? std::llround(-d.best_energy) : 0;
      out.dqubo_proposals += d.total_proposed;
    }
  }

  Quality quality(const SweepOut& sweep) const {
    Quality q;
    std::size_t inits = 0, h_success = 0, d_success = 0;
    for (std::size_t k = 0; k < sweep.instances.size(); ++k) {
      const long long ref = suite_[all_[k]].reference;
      for (const InitOutcome& o : sweep.instances[k].inits) {
        ++inits;
        if (core::is_success(o.hycim_profit, ref)) ++h_success;
        if (core::is_success(o.dqubo_profit, ref)) ++d_success;
        q.norm_value += core::normalized_value(o.hycim_profit, ref);
        q.dqubo_norm_value += core::normalized_value(o.dqubo_profit, ref);
      }
    }
    const double n = static_cast<double>(inits);
    q.success_pct = 100.0 * static_cast<double>(h_success) / n;
    q.dqubo_success_pct = 100.0 * static_cast<double>(d_success) / n;
    q.norm_value /= n;
    q.dqubo_norm_value /= n;
    return q;
  }

  static void check_quality(const Quality& q, Report& r) {
    if (!(q.success_pct > q.dqubo_success_pct + kShapeMarginPct)) {
      r.fail_check("HyCiM success " + std::to_string(q.success_pct) +
                   " % does not beat D-QUBO " +
                   std::to_string(q.dqubo_success_pct) + " % by " +
                   std::to_string(kShapeMarginPct) + " points");
    }
  }

  static std::string fingerprint(const SweepOut& sweep) {
    std::size_t proposals = 0, evals = 0, dqubo_proposals = 0, aux = 0;
    for (const InstanceOutcome& inst : sweep.instances) {
      proposals += inst.walk.total_proposed;
      evals += inst.walk.total_evaluated;
      dqubo_proposals += inst.dqubo_proposals;
      aux += inst.aux_vars;
    }
    std::ostringstream out;
    out << "fingerprint paper_sweep: walk.proposals=" << proposals
        << " walk.qubo_evals=" << evals
        << " dqubo.proposals=" << dqubo_proposals
        << " dqubo.aux_vars=" << aux;
    return out.str();
  }

  std::vector<Instance> suite_;
  std::vector<std::size_t> all_;
  std::uint64_t batch_root_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep() {
  return std::make_unique<PaperSweep>();
}

}  // namespace e2e
