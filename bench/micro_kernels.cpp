// Micro-benchmarks (google-benchmark) of the hot kernels whose costs feed
// a live decision: full vs incremental QUBO energy, dense vs sparse flips
// (the kernel crossover), the filter and circuit trial paths, the swap
// sampler, the ensemble barriers, and pool dispatch.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <vector>

#include "anneal/archipelago.hpp"
#include "anneal/index_sampler.hpp"
#include "anneal/moves.hpp"
#include "anneal/strategy.hpp"
#include "cim/crossbar/crossbar.hpp"
#include "cim/crossbar/vmv_engine.hpp"
#include "cim/filter/filter_bank.hpp"
#include "cim/filter/inequality_filter.hpp"
#include "core/inequality_qubo.hpp"
#include "cop/adapters.hpp"
#include "cop/maxcut.hpp"
#include "cop/qkp.hpp"
#include "qubo/energy.hpp"
#include "qubo/neighbor_index.hpp"
#include "runtime/executor_pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace hycim;

cop::QkpInstance instance(std::size_t n) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 50;
  return cop::generate_qkp(params, 42);
}

cop::QkpInstance sparse_instance(std::size_t n) {
  // The paper's sparsest QKP suite corner (Sec. 4: density 25).
  cop::QkpGeneratorParams params;
  params.n = n;
  params.density_percent = 25;
  return cop::generate_qkp(params, 42);
}

void BM_FullEnergy(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(1);
  const auto x = rng.random_bits(inst.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(form.q.energy(x));
  }
}
BENCHMARK(BM_FullEnergy)->Arg(100)->Arg(400);

void BM_IncrementalDelta(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(2);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(inst.n));
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.delta(k));
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_IncrementalDelta)->Arg(100)->Arg(400);

void BM_IncrementalFlip(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(3);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(inst.n));
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_IncrementalFlip)->Arg(100)->Arg(400);

void BM_DenseFlip(benchmark::State& state) {
  // The dense commit kernel on a density-25 instance: every flip walks a
  // full matrix row (O(n)) even though ~75% of the couplings are zero.
  // The QKP is integral, so the rows are the mirror's int32 ones.
  const auto inst = sparse_instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(3);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(inst.n),
                                  qubo::Kernel::kDense);
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_DenseFlip)->Arg(400)->Arg(1600);

void BM_SparseFlip(benchmark::State& state) {
  // The sparse commit kernel on the same instance: the flip walks the
  // NeighborIndex adjacency, O(degree) — bit-identical energies, ~4x
  // fewer touched terms at density 25.
  const auto inst = sparse_instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(3);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(inst.n),
                                  qubo::Kernel::kSparse);
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_SparseFlip)->Arg(400)->Arg(1600);

void BM_SparseFlipMaxCut(benchmark::State& state) {
  // Max-cut at 5% edge probability: degree ~n/20, the structure where the
  // O(degree) kernel shines hardest.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto g = cop::generate_maxcut(n, 0.05, 9);
  const auto form = cop::to_constrained_form(g);
  util::Rng rng(4);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(n),
                                  qubo::Kernel::kSparse);
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % n;
  }
}
BENCHMARK(BM_SparseFlipMaxCut)->Arg(400)->Arg(1600);

void BM_WordFlip(benchmark::State& state) {
  // The word-parallel dense commit: one contiguous branch-free fma pass
  // over the flipped variable's DenseRows mirror row (auto-vectorizes).
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(3);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(inst.n),
                                  qubo::Kernel::kDense);
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % inst.n;
  }
  benchmark::DoNotOptimize(eval.energy());
}
BENCHMARK(BM_WordFlip)->Arg(400)->Arg(1600);

void BM_DenseVmvRow(benchmark::State& state) {
  // One crossbar column evaluation after the column-major cache mirror:
  // the selected column's cell/leak currents sit contiguously, so the
  // select-and-sum pass auto-vectorizes instead of striding by cols.
  const auto n = static_cast<std::size_t>(state.range(0));
  cim::CrossbarParams params;
  device::VariationModel fab(device::VariationParams{}, 21);
  util::Rng rng(13);
  std::vector<std::uint8_t> bits(n * n);
  for (auto& b : bits) b = rng.bernoulli(0.5) ? 1 : 0;
  const cim::CrossbarArray array(params, n, n, bits, fab);
  const auto x = rng.random_bits(n, 0.5);
  std::size_t col = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.column_current(x, col));
    col = (col + 1) % n;
  }
}
BENCHMARK(BM_DenseVmvRow)->Arg(256)->Arg(1024);

void BM_FilterEvaluate(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  cim::InequalityFilter filter(params, inst.weights, inst.capacity);
  util::Rng rng(4);
  const auto x = rng.random_bits(inst.n, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.is_feasible(x));
  }
}
BENCHMARK(BM_FilterEvaluate)->Arg(100)->Arg(400);

void BM_FilterTrialFlip(benchmark::State& state) {
  // The SA hot call after the incremental refactor: one flipped column
  // against the bound matchline state — O(phases) versus
  // BM_FilterEvaluate's O(n·phases) full re-discharge.
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  cim::InequalityFilter filter(params, inst.weights, inst.capacity);
  util::Rng rng(4);
  filter.bind(rng.random_bits(inst.n, 0.4));
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    benchmark::DoNotOptimize(filter.trial_feasible(flips));
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_FilterTrialFlip)->Arg(100)->Arg(400);

void BM_FilterCommit(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  cim::InequalityFilter filter(params, inst.weights, inst.capacity);
  util::Rng rng(4);
  filter.bind(rng.random_bits(inst.n, 0.4));
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    filter.apply(flips);
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_FilterCommit)->Arg(100)->Arg(400);

/// A sparse multi-constraint system in the MDKP/bin-packing shape: 16
/// inequality rows over n variables, each variable wired into exactly 2.
std::vector<cim::LinearConstraint> banded_constraints(std::size_t n) {
  constexpr std::size_t kRows = 16;
  std::vector<cim::LinearConstraint> cs(kRows);
  util::Rng rng(17);
  for (auto& c : cs) {
    c.weights.assign(n, 0);
    c.capacity = 0;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t r : {k % kRows, (k + 7) % kRows}) {
      cs[r].weights[k] = rng.uniform_int(1, 30);
      cs[r].capacity += cs[r].weights[k];
    }
  }
  for (auto& c : cs) c.capacity /= 2;  // ~50% tightness
  return cs;
}

void BM_ConstraintIncidenceApply(benchmark::State& state) {
  // The incidence-gated commit: the bank routes the flip to the 2 filters
  // whose rows contain it (support-compressed columns), O(incidence)
  // instead of O(#constraints).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cs = banded_constraints(n);
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  cim::FilterBank bank(params, cs, {}, n);
  util::Rng rng(4);
  bank.bind(rng.random_bits(n, 0.3));
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    bank.apply(flips);
    k = (k + 1) % n;
  }
}
BENCHMARK(BM_ConstraintIncidenceApply)->Arg(256)->Arg(1024);

void BM_CircuitVmvEnergy(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  cim::VmvEngineParams circuit;
  circuit.fab_seed = 6;
  cim::VmvEngine engine(*form.q.freeze(), 7, circuit);
  util::Rng rng(5);
  const auto x = rng.random_bits(inst.n, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.energy(x));
  }
}
BENCHMARK(BM_CircuitVmvEnergy)->Arg(32)->Arg(100);

void BM_CircuitTrialDelta(benchmark::State& state) {
  // Circuit-mode SA delta on the bound-state evaluator: cached per-column
  // currents + ADC reconversion, O(n·bits) versus BM_CircuitVmvEnergy's
  // O(n²·bits) full VMV.
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  cim::VmvEngineParams circuit;
  circuit.fab_seed = 6;
  cim::VmvEngine engine(*form.q.freeze(), 7, circuit);
  util::Rng rng(5);
  engine.bind(rng.random_bits(inst.n, 0.4));
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    benchmark::DoNotOptimize(engine.trial(flips) - engine.bound_energy());
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_CircuitTrialDelta)->Arg(32)->Arg(100);

void BM_SwapIndexSample(benchmark::State& state) {
  // What every swap proposal pays, filtered and rejected ones included:
  // one k-th set and one k-th cleared index from the sampler's lists.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  anneal::IndexSampler sampler;
  sampler.reset(rng.random_bits(n, 0.4));
  for (auto _ : state) {
    const std::size_t out = sampler.kth_one(rng.index(sampler.ones()));
    const std::size_t in = sampler.kth_zero(rng.index(sampler.zeros()));
    benchmark::DoNotOptimize(out + in);
  }
}
BENCHMARK(BM_SwapIndexSample)->Arg(100)->Arg(400)->Arg(1600);

void BM_SwapIndexCommit(benchmark::State& state) {
  // What only a committed swap pays: two flips, each moving one index
  // between the lists.  Walks sample several times per commit (about 20
  // swap samples per committed bit on e2ebench's anneal_large), so read
  // this against BM_SwapIndexSample weighted by that ratio.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  anneal::IndexSampler sampler;
  sampler.reset(rng.random_bits(n, 0.4));
  for (auto _ : state) {
    sampler.flip(rng.index(n));
    sampler.flip(rng.index(n));
    benchmark::DoNotOptimize(sampler.ones());
  }
}
BENCHMARK(BM_SwapIndexCommit)->Arg(100)->Arg(400)->Arg(1600);

void BM_ExchangeStep(benchmark::State& state) {
  // One replica-exchange barrier over an R-slot ladder: the serial
  // Metropolis sweep a tempered solve interleaves between replica segments.
  // O(R) with at most one uniform draw per proposed pair — this pins the
  // barrier overhead against the O(interval · n) walk segments it
  // separates.
  const auto replicas = static_cast<std::size_t>(state.range(0));
  std::vector<double> betas(replicas), energies(replicas);
  std::vector<std::size_t> replica_at_slot(replicas);
  util::Rng rng(8);
  for (std::size_t s = 0; s < replicas; ++s) {
    betas[s] = 1.0 + static_cast<double>(s);
    energies[s] = rng.uniform(-100.0, 0.0);
    replica_at_slot[s] = s;
  }
  std::size_t barrier = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anneal::exchange_step(
        barrier++, betas, energies, replica_at_slot, rng, nullptr));
  }
}
BENCHMARK(BM_ExchangeStep)->Arg(4)->Arg(16)->Arg(64);

void BM_MigrationStep(benchmark::State& state) {
  // One archipelago migration barrier over N islands: a serial
  // ascending-destination sweep with at most one rng draw per destination
  // (fully-connected donor pick; the ring draws nothing).  O(islands) —
  // this pins the epoch-barrier overhead against the O(interval · n)
  // island segments it separates.
  const auto islands = static_cast<std::size_t>(state.range(0));
  const auto topology = state.range(1)
                            ? anneal::MigrationTopology::kFullyConnected
                            : anneal::MigrationTopology::kRing;
  std::vector<double> best(islands), worst(islands);
  util::Rng rng(9);
  for (std::size_t i = 0; i < islands; ++i) {
    best[i] = rng.uniform(-100.0, -50.0);
    worst[i] = best[i] + rng.uniform(0.0, 60.0);
  }
  std::vector<std::size_t> accepted_source(islands);
  std::size_t epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anneal::migration_step(
        epoch++, topology, best, worst, rng, accepted_source, nullptr));
  }
}
BENCHMARK(BM_MigrationStep)
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1});

void BM_LadderRespace(benchmark::State& state) {
  // The adaptive-ladder update: a pure function of the measured exchange
  // acceptance (log/exp + clamps, no rng) — priced here so the per-epoch
  // respace decision stays visibly negligible next to the walk segments.
  util::Rng rng(10);
  double t_ratio = 0.05;
  for (auto _ : state) {
    t_ratio = anneal::respace_t_ratio(t_ratio, rng.uniform(0.0, 1.0), 0.3);
    benchmark::DoNotOptimize(t_ratio);
  }
}
BENCHMARK(BM_LadderRespace);

constexpr std::size_t kFanTasks = 8;
constexpr unsigned kFanWidth = 4;

void BM_PoolDispatch(benchmark::State& state) {
  // An 8-task fan through a warm ExecutorPool: one publish to the pool's
  // open-group list, one broadcast to the parked workers, the caller
  // participates, zero thread constructions.
  runtime::ExecutorPool pool(kFanWidth);
  std::atomic<std::size_t> sink{0};
  const anneal::Task task = [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  };
  pool.run(kFanTasks, task, kFanWidth);  // warm the worker set
  for (auto _ : state) {
    pool.run(kFanTasks, task, kFanWidth);
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_PoolDispatch);

void BM_QuantizedEnergy(benchmark::State& state) {
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  const auto quant = cim::quantize(form.q, 7);
  util::Rng rng(6);
  const auto x = rng.random_bits(inst.n, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant.energy(x));
  }
}
BENCHMARK(BM_QuantizedEnergy)->Arg(100)->Arg(400);

/// Direct head-to-head timing of the flip kernels (outside the
/// google-benchmark harness so the ratio lands in the output as one
/// number): M committed flips through each kernel on one density-25
/// instance at n = 800, forced through the evaluator's kernel seam.  This
/// ratio is the evidence for qubo::kSparseDensityThreshold, the only thing
/// that picks a kernel.  One such shot moves by up to 2x on a shared VM,
/// so the kernels alternate over kRuns shots each, and the line reports
/// the median of the per-pair ratios with their min–max.
void report_flip_ratio() {
  constexpr std::size_t kN = 800;
  constexpr std::size_t kFlips = 100000;
  constexpr std::size_t kRuns = 9;
  const auto inst = sparse_instance(kN);
  const qubo::FrozenQuboPtr q = core::to_inequality_qubo(inst).q.freeze();
  util::Rng rng(11);
  const auto x0 = rng.random_bits(kN);
  const auto time_kernel = [&](qubo::Kernel kernel) {
    qubo::IncrementalEvaluator eval(q, x0, kernel);
    const auto start = std::chrono::steady_clock::now();
    std::size_t k = 0;
    for (std::size_t i = 0; i < kFlips; ++i) {
      eval.flip(k);
      k = (k + 1) % kN;
    }
    benchmark::DoNotOptimize(eval.energy());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<double> dense, sparse, ratio;
  for (std::size_t r = 0; r < kRuns; ++r) {
    dense.push_back(time_kernel(qubo::Kernel::kDense));
    sparse.push_back(time_kernel(qubo::Kernel::kSparse));
    ratio.push_back(dense.back() / sparse.back());
  }
  const util::Summary ratios = util::summarize(ratio);
  std::printf(
      "\n[sparse-kernel] dense/sparse flip-throughput ratio at n=%zu "
      "density=25%%: median %.2fx (min %.2fx, max %.2fx over %zu alternating "
      "runs; median dense %.0f ns/flip, sparse %.0f ns/flip)\n",
      kN, ratios.median, ratios.min, ratios.max, kRuns,
      1e9 * util::percentile(dense, 0.5) / kFlips,
      1e9 * util::percentile(sparse, 0.5) / kFlips);
}

/// Head-to-head timing of one archipelago epoch's halves: the walk work an
/// epoch advances (islands × migration_interval committed flips at n=800)
/// vs the serial barrier that separates epochs (migration sweep + one
/// ladder respace per island).  This is the acceptance number for the
/// island runtime — the barrier must stay a rounding error, expect the
/// walk/barrier ratio >= 50x.
void report_migration_barrier_ratio() {
  constexpr std::size_t kN = 800;
  constexpr std::size_t kIslands = 8;
  constexpr std::size_t kInterval = 100;
  constexpr std::size_t kEpochs = 1000;
  const auto inst = instance(kN);
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(14);
  qubo::IncrementalEvaluator eval(form.q.freeze(), rng.random_bits(kN),
                                  qubo::Kernel::kDense);
  const auto start_walk = std::chrono::steady_clock::now();
  {
    std::size_t k = 0;
    for (std::size_t i = 0; i < kEpochs * kIslands * kInterval; ++i) {
      eval.flip(k);
      k = (k + 1) % kN;
    }
    benchmark::DoNotOptimize(eval.energy());
  }
  const auto mid = std::chrono::steady_clock::now();
  {
    std::vector<double> best(kIslands), worst(kIslands);
    std::vector<double> ratios(kIslands, 0.05);
    for (std::size_t i = 0; i < kIslands; ++i) {
      best[i] = rng.uniform(-100.0, -50.0);
      worst[i] = best[i] + rng.uniform(0.0, 60.0);
    }
    std::vector<std::size_t> accepted_source(kIslands);
    double sink = 0.0;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      sink += static_cast<double>(anneal::migration_step(
          epoch, anneal::MigrationTopology::kFullyConnected, best, worst, rng,
          accepted_source, nullptr));
      for (std::size_t i = 0; i < kIslands; ++i) {
        ratios[i] = anneal::respace_t_ratio(
            ratios[i], rng.uniform(0.0, 1.0), 0.3);
        sink += ratios[i];
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  const auto end = std::chrono::steady_clock::now();
  const double walk = std::chrono::duration<double>(mid - start_walk).count();
  const double barrier = std::chrono::duration<double>(end - mid).count();
  std::printf(
      "[archipelago] walk/barrier epoch-overhead ratio at n=%zu islands=%zu "
      "interval=%zu: %.0fx (walk %.0f ns/epoch, barrier %.0f ns/epoch)\n",
      kN, kIslands, kInterval, walk / barrier, 1e9 * walk / kEpochs,
      1e9 * barrier / kEpochs);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_flip_ratio();
  report_migration_barrier_ratio();
  return 0;
}
