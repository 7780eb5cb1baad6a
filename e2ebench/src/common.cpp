#include "common.hpp"

#include <sys/resource.h>

#include <sstream>

namespace e2e {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void warm_pool() {
  auto& pool = hc::runtime::ExecutorPool::global();
  pool.run(4 * pool.budget(), [](std::size_t) {});
}

std::vector<RunKey> run_keys(const hc::runtime::BatchResult& batch) {
  std::vector<RunKey> keys;
  keys.reserve(batch.runs.size());
  for (const auto& run : batch.runs) {
    keys.push_back({run.best_x, run.proposed, run.evaluated});
  }
  return keys;
}

hc::runtime::RunRecord record_of(const hc::core::SolveResult& result) {
  hc::runtime::RunRecord record;
  record.best_x = result.best_x;
  record.best_energy = result.best_energy;
  record.feasible = result.feasible;
  record.status = result.status;
  record.evaluated = result.sa.evaluated;
  record.proposed = result.sa.proposed;
  record.infeasible = result.sa.rejected_infeasible;
  record.exchanges_proposed = result.exchanges_proposed;
  record.exchanges_accepted = result.exchanges_accepted;
  record.migrations_proposed = result.migrations_proposed;
  record.migrations_accepted = result.migrations_accepted;
  record.kernel = result.kernel;
  return record;
}

hc::anneal::Executor span_executor(hc::anneal::Executor inner,
                                   std::uint64_t item) {
  return [inner = std::move(inner), item](std::size_t count,
                                          const hc::anneal::Task& task) {
    const std::uint32_t parent = current_span();
    inner(count, [&](std::size_t i) {
      const Span span("walk.segment", item, parent);
      task(i);
    });
  };
}

PoolDelta pool_delta(const hc::runtime::PoolStats& before,
                     const hc::runtime::PoolStats& after) {
  PoolDelta d;
  d.dispatches = after.dispatches - before.dispatches;
  d.inline_runs = after.inline_runs - before.inline_runs;
  d.steals = after.steals - before.steals;
  d.parks = after.parks - before.parks;
  const double up = after.up_seconds - before.up_seconds;
  if (after.workers_alive > 0 && up > 0.0) {
    d.utilization = (after.busy_seconds - before.busy_seconds) /
                    (static_cast<double>(after.workers_alive) * up);
  }
  return d;
}

void LayerMetrics::add_spans(const std::vector<SpanRecord>& records) {
  spans += records.size();
  for (const auto& [name, t] : layer_times(records)) {
    if (name == "cop.lower") {
      cop_lower_s += t.self_s;
      cop_lower_calls += t.count;
    } else if (name == "dqubo.build") {
      dqubo_build_s += t.self_s;
    } else if (name == "dqubo.solve") {
      dqubo_solve_s += t.self_s;
    } else if (name == "fab.build") {
      fab_build_s += t.self_s;
      fab_count += t.count;
    } else if (name == "fab.clone") {
      fab_clone_s += t.self_s;
      fab_clones += t.count;
    } else if (name == "walk.solve" || name == "walk.segment") {
      walk_solve_s += t.self_s;
      walk_barrier_s += t.self_with_children_s;
    } else if (name.rfind("rt.", 0) == 0) {
      rt_batch_s += t.self_s;
    }
  }
}

void LayerMetrics::add_batch(const hc::runtime::BatchResult& batch) {
  walk_proposals += batch.total_proposed;
  walk_qubo_evals += batch.total_evaluated;
  walk_exchanges_proposed += batch.total_exchanges_proposed;
  walk_exchanges_accepted += batch.total_exchanges_accepted;
  walk_migrations += batch.total_migrations_accepted;
}

void LayerMetrics::emit(Report& r) const {
  const auto count = [](std::size_t v) { return static_cast<double>(v); };
  r.add("cop.lower_s", cop_lower_s, "s");
  r.add("cop.lower_calls", count(cop_lower_calls), "count");
  r.add("dqubo.build_s", dqubo_build_s, "s");
  r.add("dqubo.solve_s", dqubo_solve_s, "s");
  r.add("dqubo.aux_vars", count(dqubo_aux_vars), "count");
  r.add("dqubo_norm_value", dqubo_norm_value, "ratio");
  r.add("fab.build_s", fab_build_s, "s");
  r.add("fab.count", count(fab_count), "count");
  r.add("fab.clone_s", fab_clone_s, "s");
  r.add("fab.clones", count(fab_clones), "count");
  r.add("walk.solve_s", walk_solve_s, "s");
  r.add("walk.barrier_s", walk_barrier_s, "s");
  r.add("walk.proposals", count(walk_proposals), "count");
  r.add("walk.qubo_evals", count(walk_qubo_evals), "count");
  r.add("walk.filter_pass",
        walk_proposals == 0 ? 0.0 : count(walk_qubo_evals) / count(walk_proposals),
        "ratio");
  r.add("walk.ns_per_proposal",
        walk_proposals == 0 ? 0.0 : walk_solve_s * 1e9 / count(walk_proposals),
        "ns");
  r.add("walk.exchange_accept",
        walk_exchanges_proposed == 0
            ? 0.0
            : count(walk_exchanges_accepted) / count(walk_exchanges_proposed),
        "ratio");
  r.add("walk.migrations", count(walk_migrations), "count");
  r.add("rt.batch_s", rt_batch_s, "s");
  r.add("rt.speedup", rt_speedup, "ratio");
  r.add("rt.dispatches", count(pool.dispatches), "count");
  r.add("rt.inline_runs", count(pool.inline_runs), "count");
  r.add("rt.steals", count(pool.steals), "count");
  r.add("rt.parks", count(pool.parks), "count");
  r.add("rt.utilization", pool.utilization, "ratio");
  r.add("svc.overhead_ms_p50", svc_overhead_ms.median, "ms");
  r.add("svc.overhead_ms_p99", svc_overhead_ms.tail, "ms");
  r.add("svc.batch_ms_p50", svc_batch_ms.median, "ms");
  r.add("svc.batch_ms_p99", svc_batch_ms.tail, "ms");
  r.add("svc.cache_hit_ratio", svc_cache_hit_ratio, "ratio");
  r.add("svc.fabrications", count(svc_fabrications), "count");
  r.add("svc.evictions", count(svc_evictions), "count");
  r.add("svc.retries", count(svc_retries), "count");
  r.add("svc.degraded", count(svc_degraded), "count");
  r.add("svc.effective_threads_mean", svc_effective_threads_mean, "threads");
  r.add("svc.gen_late_ms_p99", svc_gen_late_ms.tail, "ms");
  r.add("trace.overhead_pct", trace_overhead_pct, "%");
  r.add("trace.spans", count(spans), "count");
  if (svc_overhead_ms.n > 0) {
    r.note(timing_line("svc.overhead", svc_overhead_ms, "ms"));
    r.note(timing_line("svc.batch", svc_batch_ms, "ms"));
  }
  if (svc_gen_late_ms.n > 0) {
    r.note(timing_line("svc.gen_late", svc_gen_late_ms, "ms"));
  }
}

std::string timing_line(const std::string& name, const Summary& s,
                        const std::string& unit) {
  std::ostringstream out;
  out << name << ": median " << s.median << " " << unit << ", tail "
      << s.tail << " " << unit << " (" << describe_tail(s) << " samples)";
  return out.str();
}

}  // namespace e2e
