// Micro-benchmarks (google-benchmark) of the hot kernels: full vs
// incremental QUBO energy, inequality-filter evaluation, crossbar column
// currents, and the circuit-level VMV path.  These justify the fidelity-
// mode choices documented in DESIGN.md.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "anneal/archipelago.hpp"
#include "anneal/index_sampler.hpp"
#include "anneal/moves.hpp"
#include "anneal/replica_batch.hpp"
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

/// The pre-word-parallel dense flip kernel, kept verbatim for head-to-head
/// timing: guarded per-element at() walks over the packed triangle (each
/// element pays the triangular index arithmetic and a branch).
class ScalarFlipReference {
 public:
  ScalarFlipReference(const qubo::QuboMatrix& q, qubo::BitVector x0)
      : q_(&q), x_(std::move(x0)) {
    const std::size_t n = x_.size();
    phi_.assign(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      double s = q_->at(k, k);
      for (std::size_t i = 0; i < k; ++i) {
        if (x_[i]) s += q_->at(i, k);
      }
      for (std::size_t j = k + 1; j < n; ++j) {
        if (x_[j]) s += q_->at(k, j);
      }
      phi_[k] = s;
    }
  }

  void flip(std::size_t k) {
    const double sign = x_[k] ? -1.0 : 1.0;
    x_[k] ^= 1;
    for (std::size_t i = 0; i < k; ++i) phi_[i] += sign * q_->at(i, k);
    for (std::size_t j = k + 1; j < x_.size(); ++j) {
      phi_[j] += sign * q_->at(k, j);
    }
  }

  const std::vector<double>& fields() const { return phi_; }

 private:
  const qubo::QuboMatrix* q_;
  qubo::BitVector x_;
  std::vector<double> phi_;
};

void BM_ScalarFlip(benchmark::State& state) {
  // The dense commit before the word-parallel rewrite: guarded two-loop
  // at() walk over the packed triangle, one triangular index computation
  // and one branch per element.
  const auto inst = instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(3);
  ScalarFlipReference eval(form.q, rng.random_bits(inst.n));
  std::size_t k = 0;
  for (auto _ : state) {
    eval.flip(k);
    k = (k + 1) % inst.n;
  }
  benchmark::DoNotOptimize(eval.fields().data());
}
BENCHMARK(BM_ScalarFlip)->Arg(400)->Arg(1600);

void BM_WordFlip(benchmark::State& state) {
  // The word-parallel dense commit: one contiguous branch-free fma pass
  // over the flipped variable's DenseRows mirror row (auto-vectorizes),
  // bit-identical to BM_ScalarFlip's guarded triangle walk.
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

constexpr std::size_t kBatchReplicas = 8;

void BM_PerReplicaTrial(benchmark::State& state) {
  // The pre-SoA ensemble: every replica owns its own matrix copy and its
  // own DenseRows mirror, so R independent n²-sized working sets march
  // through cache even though every replica walks the same couplings.
  // Replicas commit at staggered rows (each tempering walk proposes its
  // own moves), so the cost is the ensemble's aggregate working set.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = instance(n);
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(12);
  std::vector<qubo::IncrementalEvaluator> evals;
  evals.reserve(kBatchReplicas);
  for (std::size_t r = 0; r < kBatchReplicas; ++r) {
    // A private frozen copy per replica: its own matrix and mirror.
    evals.emplace_back(form.q.freeze(), rng.random_bits(n),
                       qubo::Kernel::kDense);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < kBatchReplicas; ++r) {
      evals[r].flip((k + r * n / kBatchReplicas) % n);
    }
    k = (k + 1) % n;
  }
  benchmark::DoNotOptimize(evals[0].energy());
}
BENCHMARK(BM_PerReplicaTrial)->Arg(800)->Arg(1600);

void BM_BatchedReplicaTrial(benchmark::State& state) {
  // The SoA batch: R replica views over ONE shared DenseRows mirror
  // (contiguous R×n field block), so the same staggered commits stream a
  // single n²-sized working set instead of R of them.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inst = instance(n);
  const auto form = core::to_inequality_qubo(inst);
  anneal::QuboReplicaBatch batch(form.q.freeze(), kBatchReplicas,
                                 qubo::Kernel::kDense);
  util::Rng rng(12);
  for (std::size_t r = 0; r < kBatchReplicas; ++r) {
    batch.problem(r).reset(rng.random_bits(n));
  }
  std::size_t k = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < kBatchReplicas; ++r) {
      batch.problem(r).commit(
          anneal::Move::flip((k + r * n / kBatchReplicas) % n));
    }
    k = (k + 1) % n;
  }
  benchmark::DoNotOptimize(batch.problem(0).state().data());
}
BENCHMARK(BM_BatchedReplicaTrial)->Arg(800)->Arg(1600);

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

void BM_ConstraintDenseApply(benchmark::State& state) {
  // The pre-incidence commit path: every committed flip walks *every*
  // filter of the bank (full-width arrays, zero-weight columns included).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cs = banded_constraints(n);
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  std::vector<cim::InequalityFilter> filters;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    cim::InequalityFilterParams p = params;
    p.fab_seed = params.fab_seed + i;
    filters.emplace_back(p, cs[i].weights, cs[i].capacity);
  }
  util::Rng rng(4);
  const auto x = rng.random_bits(n, 0.3);
  for (auto& f : filters) f.bind(x);
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    for (auto& f : filters) f.apply(flips);
    k = (k + 1) % n;
  }
}
BENCHMARK(BM_ConstraintDenseApply)->Arg(256)->Arg(1024);

void BM_ConstraintIncidenceApply(benchmark::State& state) {
  // The incidence-gated commit: the bank routes the flip to the 2 filters
  // whose rows contain it (support-compressed columns), O(incidence)
  // instead of O(#constraints).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto cs = banded_constraints(n);
  cim::InequalityFilterParams params;
  params.fab_seed = 5;
  cim::FilterBank bank(params, cs, n);
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
  cim::VmvEngineParams params;
  params.mode = cim::VmvMode::kCircuit;
  params.fab_seed = 6;
  cim::VmvEngine engine(params, form.q.freeze());
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
  cim::VmvEngineParams params;
  params.mode = cim::VmvMode::kCircuit;
  params.fab_seed = 6;
  cim::VmvEngine engine(params, form.q.freeze());
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

void BM_CircuitTrialDeltaByKernel(benchmark::State& state) {
  // Circuit-mode trial on a density-25 instance under both kernels
  // (range(1) selects): dense reconverts every selected column
  // (O(n·bits) ADC conversions), sparse only the flipped row's structural
  // neighbors (O(degree·bits)).
  const auto inst = sparse_instance(static_cast<std::size_t>(state.range(0)));
  const auto form = core::to_inequality_qubo(inst);
  cim::VmvEngineParams params;
  params.mode = cim::VmvMode::kCircuit;
  params.fab_seed = 6;
  params.kernel =
      state.range(1) ? qubo::Kernel::kSparse : qubo::Kernel::kDense;
  cim::VmvEngine engine(params, form.q.freeze());
  util::Rng rng(5);
  engine.bind(rng.random_bits(inst.n, 0.4));
  std::size_t k = 0;
  for (auto _ : state) {
    const std::array<std::size_t, 1> flips{k};
    benchmark::DoNotOptimize(engine.trial(flips) - engine.bound_energy());
    k = (k + 1) % inst.n;
  }
}
BENCHMARK(BM_CircuitTrialDeltaByKernel)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({200, 0})
    ->Args({200, 1});

void BM_SwapIndexRebuild(benchmark::State& state) {
  // The pre-sampler SA move generator: rebuild the ones/zeros index lists
  // from the state (O(n)) for every swap proposal, then sample both lists.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const auto x = rng.random_bits(n, 0.4);
  std::vector<std::size_t> ones, zeros;
  ones.reserve(n);
  zeros.reserve(n);
  for (auto _ : state) {
    ones.clear();
    zeros.clear();
    for (std::size_t i = 0; i < n; ++i) {
      (x[i] ? ones : zeros).push_back(i);
    }
    benchmark::DoNotOptimize(ones[rng.index(ones.size())] +
                             zeros[rng.index(zeros.size())]);
  }
}
BENCHMARK(BM_SwapIndexRebuild)->Arg(100)->Arg(400)->Arg(1600);

void BM_SwapIndexSampler(benchmark::State& state) {
  // The incremental generator: O(log n) order-statistic picks plus the
  // O(log n) commit that keeps the sampler in sync — the cost the SA engine
  // now pays per swap proposal instead of BM_SwapIndexRebuild's O(n).
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  anneal::IndexSampler sampler;
  sampler.reset(rng.random_bits(n, 0.4));
  for (auto _ : state) {
    const std::size_t out = sampler.kth_one(rng.index(sampler.ones()));
    const std::size_t in = sampler.kth_zero(rng.index(sampler.zeros()));
    sampler.flip(out);  // commit the swap so the walk keeps moving
    sampler.flip(in);
    benchmark::DoNotOptimize(out + in);
  }
}
BENCHMARK(BM_SwapIndexSampler)->Arg(100)->Arg(400)->Arg(1600);

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

constexpr std::size_t kFanTasks = 8;
constexpr unsigned kFanWidth = 4;

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

void BM_ThreadSpawnJoin(benchmark::State& state) {
  // The pre-pool run_batch scheduler: construct a thread vector per call,
  // join, destroy — one clone/spawn/teardown cycle per batch even when the
  // per-run work is tiny.
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(kFanWidth);
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < kFanWidth; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < kFanTasks;
             i = next.fetch_add(1)) {
          sink.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadSpawnJoin);

void BM_PoolDispatch(benchmark::State& state) {
  // The same fan through a warm ExecutorPool: tokens onto the resident
  // worker deques, caller participates, zero thread constructions.
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
/// instance at n = 800.  This is the acceptance number for the
/// sparsity-aware kernel layer — expect >= 3x at density 25.
void report_flip_ratio() {
  constexpr std::size_t kN = 800;
  constexpr std::size_t kFlips = 100000;
  const auto inst = sparse_instance(kN);
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(11);
  const auto x0 = rng.random_bits(kN);
  const auto time_kernel = [&](qubo::Kernel kernel) {
    qubo::IncrementalEvaluator eval(form.q.freeze(), x0, kernel);
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
  const double dense = time_kernel(qubo::Kernel::kDense);
  const double sparse = time_kernel(qubo::Kernel::kSparse);
  std::printf(
      "\n[sparse-kernel] dense/sparse flip-throughput ratio at n=%zu "
      "density=25%%: %.2fx (dense %.0f ns/flip, sparse %.0f ns/flip)\n",
      kN, dense / sparse, 1e9 * dense / kFlips, 1e9 * sparse / kFlips);
}

/// Head-to-head timing of the dense commit kernels: M committed flips
/// through the old guarded at() triangle walk vs the word-parallel
/// contiguous mirror-row pass, same instance, same start state.  This is
/// the acceptance number for the word-parallel layer — expect >= 2x.
void report_word_flip_ratio() {
  constexpr std::size_t kN = 800;
  constexpr std::size_t kFlips = 100000;
  const auto inst = instance(kN);
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(11);
  const auto x0 = rng.random_bits(kN);
  const auto start_scalar = std::chrono::steady_clock::now();
  {
    ScalarFlipReference eval(form.q, x0);
    std::size_t k = 0;
    for (std::size_t i = 0; i < kFlips; ++i) {
      eval.flip(k);
      k = (k + 1) % kN;
    }
    benchmark::DoNotOptimize(eval.fields().data());
  }
  const auto mid = std::chrono::steady_clock::now();
  {
    qubo::IncrementalEvaluator eval(form.q.freeze(), x0, qubo::Kernel::kDense);
    std::size_t k = 0;
    for (std::size_t i = 0; i < kFlips; ++i) {
      eval.flip(k);
      k = (k + 1) % kN;
    }
    benchmark::DoNotOptimize(eval.energy());
  }
  const auto end = std::chrono::steady_clock::now();
  const double scalar = std::chrono::duration<double>(mid - start_scalar).count();
  const double word = std::chrono::duration<double>(end - mid).count();
  std::printf(
      "[word-parallel] scalar/word dense-flip ratio at n=%zu: %.2fx "
      "(scalar %.0f ns/flip, word %.0f ns/flip)\n",
      kN, scalar / word, 1e9 * scalar / kFlips, 1e9 * word / kFlips);
}

/// Head-to-head timing of the replica-ensemble layouts: M staggered
/// commits across R=8 replicas through per-replica chip clones (R matrix
/// copies, R DenseRows mirrors) vs the SoA QuboReplicaBatch (one shared
/// mirror).  This is the acceptance number for the SoA layer — expect
/// >= 1.5x.
void report_batched_replica_ratio() {
  constexpr std::size_t kN = 1600;
  constexpr std::size_t kSweeps = 10000;
  const auto inst = instance(kN);
  const auto form = core::to_inequality_qubo(inst);
  util::Rng rng(12);
  std::vector<qubo::BitVector> x0;
  for (std::size_t r = 0; r < kBatchReplicas; ++r) {
    x0.push_back(rng.random_bits(kN));
  }
  const auto start_split = std::chrono::steady_clock::now();
  {
    std::vector<qubo::IncrementalEvaluator> evals;
    evals.reserve(kBatchReplicas);
    for (std::size_t r = 0; r < kBatchReplicas; ++r) {
      evals.emplace_back(form.q.freeze(), x0[r], qubo::Kernel::kDense);
    }
    for (std::size_t i = 0; i < kSweeps; ++i) {
      for (std::size_t r = 0; r < kBatchReplicas; ++r) {
        evals[r].flip((i + r * kN / kBatchReplicas) % kN);
      }
    }
    benchmark::DoNotOptimize(evals[0].energy());
  }
  const auto mid = std::chrono::steady_clock::now();
  {
    anneal::QuboReplicaBatch batch(form.q.freeze(), kBatchReplicas,
                                   qubo::Kernel::kDense);
    for (std::size_t r = 0; r < kBatchReplicas; ++r) {
      batch.problem(r).reset(x0[r]);
    }
    for (std::size_t i = 0; i < kSweeps; ++i) {
      for (std::size_t r = 0; r < kBatchReplicas; ++r) {
        batch.problem(r).commit(
            anneal::Move::flip((i + r * kN / kBatchReplicas) % kN));
      }
    }
    benchmark::DoNotOptimize(batch.problem(0).state().data());
  }
  const auto end = std::chrono::steady_clock::now();
  const double split = std::chrono::duration<double>(mid - start_split).count();
  const double batched = std::chrono::duration<double>(end - mid).count();
  const double commits = static_cast<double>(kSweeps * kBatchReplicas);
  std::printf(
      "[soa-replicas] per-replica/batched commit-throughput ratio at n=%zu "
      "R=%zu: %.2fx (split %.0f ns/commit, batched %.0f ns/commit)\n",
      kN, kBatchReplicas, split / batched, 1e9 * split / commits,
      1e9 * batched / commits);
}

/// Head-to-head timing of the batch-fan schedulers: M dispatch rounds of
/// an 8-task fan at width 4 through spawn-and-join thread vectors (the
/// pre-pool run_batch) vs a warm ExecutorPool (tokens onto resident
/// worker deques).  This is the acceptance number for the persistent-pool
/// layer — expect >= 10x.
void report_pool_dispatch_ratio() {
  constexpr std::size_t kRounds = 2000;
  std::atomic<std::size_t> sink{0};
  const auto start_spawn = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(kFanWidth);
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < kFanWidth; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < kFanTasks;
             i = next.fetch_add(1)) {
          sink.fetch_add(i, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto mid = std::chrono::steady_clock::now();
  {
    runtime::ExecutorPool pool(kFanWidth);
    const anneal::Task task = [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    };
    pool.run(kFanTasks, task, kFanWidth);  // warm the worker set
    for (std::size_t round = 0; round < kRounds; ++round) {
      pool.run(kFanTasks, task, kFanWidth);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink.load());
  const double spawn = std::chrono::duration<double>(mid - start_spawn).count();
  const double pool = std::chrono::duration<double>(end - mid).count();
  std::printf(
      "[executor-pool] spawn-join/pool dispatch-overhead ratio at "
      "tasks=%zu width=%u: %.2fx (spawn %.0f ns/round, pool %.0f "
      "ns/round)\n",
      kFanTasks, kFanWidth, spawn / pool, 1e9 * spawn / kRounds,
      1e9 * pool / kRounds);
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
  report_word_flip_ratio();
  report_batched_replica_ratio();
  report_pool_dispatch_ratio();
  report_migration_barrier_ratio();
  return 0;
}
