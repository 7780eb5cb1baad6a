// service_mix — the request path users call, as an open loop: one
// generator thread submits to one service::Service at a fixed mean rate
// (seeded exponential arrivals), independent of how fast replies come back.
// The mix: QKP, MDKP, bin packing, max-cut and graph coloring at small n; a
// hot set served from the chip cache plus a share of fresh instances
// (misses, with LRU evictions); priorities 0-2; a generous deadline; a
// seeded low rate of fabrication faults (retried) and chip-health faults
// (served degraded).  Each request is timed from when it was due, so a
// stall also counts against the requests queued behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "cop/any_instance.hpp"
#include "core/thread_budget.hpp"
#include "service/service.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace hycim;
using namespace std::chrono_literals;

/// Mean arrival rate, well inside the capacity of a 4-core machine, and
/// high enough that the pool's workers rarely park between requests (idle
/// virtual CPUs woke up with millisecond jitter at 100-150 req/s).
constexpr double kRatePerSecond = 400.0;
/// lat_p99_ms is the median of the p99s of this many consecutive windows.
constexpr std::size_t kWindows = 8;
/// At least this many requests per run, so each window's p99 has ten
/// samples beyond it.
constexpr std::size_t kMinRequests = 1000 * kWindows;
constexpr std::size_t kHotPerKind = 2;
constexpr std::size_t kKinds = 5;
constexpr double kFreshShare = 0.1;
/// Room for the hot set and two more chips: fresh instances evict.
constexpr std::size_t kCacheCapacity = kHotPerKind * kKinds + 2;
constexpr std::size_t kIterations = 300;
/// Caps the walks of the tightly constrained kinds (bin packing, coloring),
/// whose filters reject most proposals, so no kind dominates the tail.
constexpr std::size_t kMaxProposals = 4 * kIterations;
constexpr std::size_t kRestarts = 4;
constexpr auto kDeadline = 1s;
constexpr double kFabricationFaultRate = 0.05;
constexpr double kHealthFaultRate = 0.05;

// The hot set and the fault plan are fixed (which hot chips fail their
// health check is then the same on every seed); a seed draws the arrival
// times, priorities, batch seeds and the fresh instances.
constexpr std::uint64_t kHotSeed = 2024;
constexpr std::uint64_t kFaultSeed = 77;
constexpr std::uint64_t kPlanStream = 0x504C414EULL;  // "PLAN"

/// One small instance of the given kind (0 = QKP, 1 = MDKP, 2 = bin
/// packing, 3 = max-cut, 4 = coloring).
cop::AnyInstance make_instance(std::size_t kind, std::uint64_t seed) {
  switch (kind) {
    case 0: {
      cop::QkpGeneratorParams p;
      p.n = 64;
      p.density_percent = 50;
      return cop::generate_qkp(p, seed);
    }
    case 1: {
      cop::MdkpGeneratorParams p;
      p.n = 64;
      p.dimensions = 4;
      p.incident_dimensions = 2;
      return cop::generate_mdkp(p, seed);
    }
    case 2:
      return cop::generate_bin_packing(10, 20, 10, seed);
    case 3:
      return cop::generate_maxcut(64, 0.1, seed, 1.0, 5.0);
    default:
      return cop::generate_coloring(16, 0.25, 4, seed);
  }
}

/// The knapsack-family reference for norm_value: the greedy profit.
double greedy_reference(const cop::AnyInstance& inst) {
  if (const auto* qkp = std::get_if<cop::QkpInstance>(&inst)) {
    return static_cast<double>(qkp->total_profit(cop::greedy_solution(*qkp)));
  }
  if (const auto* mdkp = std::get_if<cop::MdkpInstance>(&inst)) {
    return static_cast<double>(mdkp->total_profit(cop::greedy_solution(*mdkp)));
  }
  return 0.0;
}

struct Planned {
  std::size_t instance = 0;
  int priority = 0;
  std::uint64_t batch_seed = 0;
  double due_s = 0.0;  ///< offset from the start of the loop
};

/// One request's fate in the open loop.
struct Outcome {
  std::optional<service::Reply> reply;  ///< empty when get() threw
  double latency_s = 0.0;               ///< from due to reply observed
  double late_s = 0.0;                  ///< generator: sent − due
  bool good = false;  ///< ok/degraded, within the deadline, feasible best
};

struct LoopOut {
  std::vector<Outcome> outcomes;
  double wall_s = 0.0;  ///< first due → last reply
  service::ServiceStats before, after;
};

class ServiceMix final : public Workload {
 public:
  void setup(const Options& options) override {
    util::Rng hot_rng(kHotSeed);
    util::Rng rng = util::fork_stream(options.seed, kPlanStream);
    instances_.clear();
    forms_.clear();
    references_.clear();
    const auto add_instance = [&](std::size_t kind, util::Rng& source) {
      instances_.push_back(make_instance(kind, source.next_u64()));
      forms_.push_back(cop::lower(instances_.back()).form);
      references_.push_back(greedy_reference(instances_.back()));
      return instances_.size() - 1;
    };
    for (std::size_t kind = 0; kind < kKinds; ++kind) {
      for (std::size_t h = 0; h < kHotPerKind; ++h) add_instance(kind, hot_rng);
    }
    const std::size_t hot = instances_.size();
    const auto requests = std::max<std::size_t>(
        kMinRequests,
        static_cast<std::size_t>(std::ceil(kRatePerSecond * options.seconds)));
    plan_.assign(requests, Planned{});
    double due = 0.0;
    for (Planned& p : plan_) {
      p.instance = rng.uniform() < kFreshShare
                       ? add_instance(rng.index(kKinds), rng)
                       : rng.index(hot);
      p.priority = static_cast<int>(rng.index(3));
      p.batch_seed = rng.next_u64();
      p.due_s = due;
      due += -std::log(1.0 - rng.uniform()) / kRatePerSecond;
    }

    util::FaultPlan faults;
    faults.seed = kFaultSeed;
    faults.fabrication_rate = kFabricationFaultRate;
    faults.health_rate = kHealthFaultRate;
    util::fault_injector().arm(faults);

    service_.reset();
    service::ServiceConfig config;
    config.chip_cache_capacity = kCacheCapacity;
    config.workers = core::thread_budget();
    config.retry_backoff_base = 100us;
    config.retry_backoff_cap = 1ms;
    service_ = std::make_unique<service::Service>(config);
    warm_pool();
    // Warm the chip cache with the hot set (faults included).
    for (std::size_t i = 0; i < hot; ++i) {
      service_->solve(request(Planned{i, 0, rng.next_u64(), 0.0}));
    }
  }

  Report measure(const Options&) override {
    Report r;
    const LoopOut loop = open_loop();
    std::vector<double> latencies_ms;
    std::size_t good = 0;
    double norm = 0.0;
    std::size_t knapsacks = 0;
    for (std::size_t i = 0; i < loop.outcomes.size(); ++i) {
      const Outcome& o = loop.outcomes[i];
      latencies_ms.push_back(o.latency_s * 1e3);
      if (!o.good) continue;
      ++good;
      const double ref = references_[plan_[i].instance];
      if (ref > 0.0) {
        norm += o.reply->problem.value / ref;
        ++knapsacks;
      }
    }
    const Summary lat = summarize(latencies_ms);
    const std::size_t n = loop.outcomes.size();
    // A stall of a few milliseconds on a shared machine lands in one window
    // and would move a whole-run p99 by itself; the reported tail is the
    // median of the windows' tails.
    std::vector<double> window_tails;
    for (std::size_t w = 0; w < kWindows; ++w) {
      window_tails.push_back(
          summarize({latencies_ms.begin() + w * n / kWindows,
                     latencies_ms.begin() + (w + 1) * n / kWindows})
              .tail);
    }
    r.attempted = n;
    r.failed = n - good;
    r.add("wall_s", loop.wall_s, "s");
    r.add("success_pct", 100.0 * static_cast<double>(good) /
                             static_cast<double>(n), "%");
    r.add("norm_value", knapsacks == 0 ? 0.0 : norm / knapsacks, "ratio");
    r.add("lat_p50_ms", lat.median, "ms");
    r.add("lat_p99_ms", median(window_tails), "ms");
    r.add("goodput_rps", static_cast<double>(good) / loop.wall_s, "req/s");
    r.note("open loop: " + std::to_string(n) + " requests at " +
           std::to_string(kRatePerSecond) + " req/s mean");
    r.note(timing_line("lat (from due time)", lat, "ms"));
    std::ostringstream windows;
    windows << "lat tail per window of " << n / kWindows
            << " requests (lat_p99_ms is their median):";
    for (const double t : window_tails) windows << " " << t;
    r.note(windows.str());
    std::vector<double> hit_ms, miss_ms;
    for (const Outcome& o : loop.outcomes) {
      if (!o.reply) continue;
      (o.reply->cache_hit ? hit_ms : miss_ms).push_back(o.latency_s * 1e3);
    }
    r.note(timing_line("lat of cache hits", summarize(hit_ms), "ms"));
    r.note(timing_line("lat of cache misses", summarize(miss_ms), "ms"));
    r.note(fingerprint(loop));
    return r;
  }

  Report traced(const Options& options) override {
    Report r;
    LayerMetrics lm;
    const LoopOut loop = open_loop();
    lm.pool = pool_delta(loop.before.pool, loop.after.pool);

    // The replay solves every answered request again, in order, through the
    // layers Service::solve calls; faults are off (a fault is retried to a
    // bit-identical result) and a degraded reply replays on the software
    // filter path it was served on.
    util::fault_injector().disarm();
    const auto replays = replay_pair([&] { return replay(loop); });
    const auto& on = replays.on;
    if (!options.trace_out.empty()) write_spans(options.trace_out, replays.spans);
    std::size_t compared = 0, mismatched = 0;
    for (std::size_t i = 0; i < loop.outcomes.size(); ++i) {
      const Outcome& o = loop.outcomes[i];
      if (!o.good) continue;
      ++compared;
      const auto keys = run_keys(o.reply->batch);
      if (keys != run_keys(replays.off[i]) || keys != run_keys(on[i])) {
        ++mismatched;
      }
    }
    if (mismatched != 0) {
      r.fail_check(std::to_string(mismatched) + " of " +
                   std::to_string(compared) +
                   " replayed requests differ from their replies");
    }

    lm.add_spans(replays.spans);
    for (const auto& batch : on) lm.add_batch(batch);
    std::vector<double> overhead_ms, batch_ms, late_ms;
    double threads = 0.0;
    std::size_t good = 0;
    for (const Outcome& o : loop.outcomes) {
      late_ms.push_back(o.late_s * 1e3);
      if (!o.good) continue;
      ++good;
      overhead_ms.push_back((o.latency_s - o.reply->batch.wall_seconds) * 1e3);
      batch_ms.push_back(o.reply->batch.wall_seconds * 1e3);
      threads += o.reply->effective_threads;
    }
    const auto& b = loop.before;
    const auto& a = loop.after;
    const std::size_t hits = a.cache.hits - b.cache.hits;
    const std::size_t misses = a.cache.misses - b.cache.misses;
    lm.svc_overhead_ms = summarize(overhead_ms);
    lm.svc_batch_ms = summarize(batch_ms);
    lm.svc_cache_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
    lm.svc_fabrications = misses;
    lm.svc_evictions = a.cache.evictions - b.cache.evictions;
    lm.svc_retries = a.retries - b.retries;
    lm.svc_degraded = a.degraded - b.degraded;
    lm.svc_effective_threads_mean =
        good == 0 ? 0.0 : threads / static_cast<double>(good);
    lm.svc_gen_late_ms = summarize(late_ms);
    lm.trace_overhead_pct = replays.overhead_pct;
    lm.emit(r);
    r.attempted = loop.outcomes.size();
    r.failed = loop.outcomes.size() - good;
    r.note("replay untraced " + std::to_string(replays.off_s / 2) +
           " s, traced " + std::to_string(replays.on_s / 2) + " s");
    r.note(fingerprint(loop));
    return r;
  }

 private:
  service::Request request(const Planned& p) const {
    service::Request req;
    req.instance = instances_[p.instance];
    req.config.sa.iterations = kIterations;
    req.config.sa.max_proposals = kMaxProposals;
    req.config.filter_mode = core::FilterMode::kHardware;
    req.batch.restarts = kRestarts;
    req.batch.seed = p.batch_seed;
    req.priority = p.priority;
    req.timeout = kDeadline;
    return req;
  }

  /// The open loop.  The generator (this thread) submits each request at
  /// its due time; a collector thread polls the futures and timestamps each
  /// reply as it lands.
  LoopOut open_loop() {
    const std::size_t n = plan_.size();
    LoopOut out;
    out.outcomes.resize(n);
    std::vector<std::future<service::Reply>> futures(n);
    std::vector<Clock::time_point> done(n);
    std::atomic<std::size_t> submitted{0};
    out.before = service_->stats();
    const auto start = Clock::now();
    const auto due_at = [&](std::size_t i) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(plan_[i].due_s));
    };

    std::thread collector([&] {
      std::vector<std::size_t> pending;
      std::size_t seen = 0, finished = 0;
      while (finished < n) {
        const std::size_t now_submitted =
            submitted.load(std::memory_order_acquire);
        while (seen < now_submitted) pending.push_back(seen++);
        for (std::size_t k = 0; k < pending.size();) {
          const std::size_t i = pending[k];
          if (futures[i].wait_for(0s) == std::future_status::ready) {
            done[i] = Clock::now();
            try {
              out.outcomes[i].reply = futures[i].get();
            } catch (const std::exception&) {
            }
            ++finished;
            pending[k] = pending.back();
            pending.pop_back();
          } else {
            ++k;
          }
        }
        std::this_thread::sleep_for(50us);
      }
    });

    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(due_at(i));
      const auto sent = Clock::now();
      futures[i] = service_->submit(request(plan_[i]));
      out.outcomes[i].late_s =
          std::chrono::duration<double>(sent - due_at(i)).count();
      submitted.store(i + 1, std::memory_order_release);
    }
    collector.join();
    out.after = service_->stats();

    Clock::time_point last = start;
    for (std::size_t i = 0; i < n; ++i) {
      Outcome& o = out.outcomes[i];
      o.latency_s = std::chrono::duration<double>(done[i] - due_at(i)).count();
      last = std::max(last, done[i]);
      if (!o.reply) continue;
      const auto status = o.reply->status;
      const auto& best = o.reply->batch.best_x;
      o.good = (status == core::SolveStatus::kOk ||
                status == core::SolveStatus::kDegraded) &&
               o.latency_s <= std::chrono::duration<double>(kDeadline).count() &&
               !best.empty() && forms_[plan_[i].instance].feasible(best);
    }
    out.wall_s = std::chrono::duration<double>(last - start).count();
    return out;
  }

  /// Service::solve's documented equivalent for every answered request:
  /// lower → fabricate (once per chip) → clone + retarget → run_batch over
  /// per-run clones + solve.
  std::vector<runtime::BatchResult> replay(const LoopOut& loop) const {
    std::vector<runtime::BatchResult> out(plan_.size());
    std::map<std::pair<std::size_t, bool>,
             std::unique_ptr<const core::HyCimSolver>>
        chips;
    for (std::size_t i = 0; i < plan_.size(); ++i) {
      const Outcome& o = loop.outcomes[i];
      if (!o.good) continue;
      const Planned& p = plan_[i];
      const Span request_span("bench.request", i);
      const cop::LoweredProblem lowered = [&] {
        const Span span("cop.lower", i);
        return cop::lower(instances_[p.instance]);
      }();
      service::Request req = request(p);
      const bool degraded = o.reply->status == core::SolveStatus::kDegraded;
      if (degraded) req.config.filter_mode = core::FilterMode::kSoftware;
      auto& chip = chips[{p.instance, degraded}];
      if (!chip) {
        const Span span("fab.build", i);
        chip = std::make_unique<const core::HyCimSolver>(lowered.form,
                                                         req.config);
      }
      std::optional<core::HyCimSolver> prototype;
      {
        const Span span("fab.clone", i);
        prototype.emplace(*chip, 0);
        prototype->retarget_solve(req.config);
      }
      runtime::BatchParams batch = req.batch;
      batch.threads = 0;
      const Span batch_span("rt.batch", i);
      const std::uint32_t parent = current_span();
      out[i] = runtime::run_batch(batch, [&](std::size_t, util::Rng& rng) {
        std::uint64_t decision_seed = rng.next_u64();
        if (decision_seed == 0) decision_seed = 1;
        std::optional<core::HyCimSolver> solver;
        {
          const Span span("fab.clone", i, parent);
          solver.emplace(*prototype, decision_seed);
        }
        const qubo::BitVector x0 = lowered.init(rng);
        const Span span("walk.solve", i, parent);
        return record_of(solver->solve(x0, rng.next_u64()));
      });
    }
    return out;
  }

  static std::string fingerprint(const LoopOut& loop) {
    std::size_t proposals = 0, evals = 0, ok = 0, degraded = 0;
    for (const Outcome& o : loop.outcomes) {
      if (!o.reply) continue;
      proposals += o.reply->batch.total_proposed;
      evals += o.reply->batch.total_evaluated;
      if (o.reply->status == core::SolveStatus::kOk) ++ok;
      if (o.reply->status == core::SolveStatus::kDegraded) ++degraded;
    }
    std::ostringstream out;
    out << "fingerprint service_mix: walk.proposals=" << proposals
        << " walk.qubo_evals=" << evals << " ok=" << ok
        << " degraded=" << degraded << " dqubo.aux_vars=0";
    return out.str();
  }

  std::vector<cop::AnyInstance> instances_;
  std::vector<core::ConstrainedQuboForm> forms_;  ///< exact feasibility checks
  std::vector<double> references_;  ///< greedy profit; 0 outside knapsacks
  std::vector<Planned> plan_;
  std::unique_ptr<service::Service> service_;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix() {
  return std::make_unique<ServiceMix>();
}

}  // namespace e2e
