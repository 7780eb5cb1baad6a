// The zero-allocation steady-state contract: after warmup (construction,
// field rebuilds, first segment growing the scratch capacities), the
// proposal→trial→commit loop performs NO heap allocations per trial — on
// the dense word-parallel kernel, the sparse kernel, and the
// filter-incidence grouping that sits inside the constrained proposal
// path — and a whole solve's allocation count does not grow with its
// length, exchange barriers included.  A fan through a warm
// runtime::ExecutorPool allocates at most its task group and its tree's
// budget.
//
// Enforced the blunt way: this binary replaces global operator new/delete
// with counting malloc wrappers (one executable per test file, so the
// replacement is contained), warms the walk up, snapshots the counter,
// runs thousands more trials, and pins the delta at exactly zero.
//
// The wrappers count requested bytes beside calls, which pins what setup
// copies: a chip clone copies only the state a walk mutates (a few
// kilobytes, not the fabricated filter arrays or crossbars), a circuit
// chip builds no software mirror, the D-QUBO one-hot builder writes about
// one packed triangle, and a D-QUBO solver builds no matrix at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "anneal/qubo_problem.hpp"
#include "anneal/sa_engine.hpp"
#include "cim/filter/incidence.hpp"
#include "cop/adapters.hpp"
#include "cop/maxcut.hpp"
#include "cop/mdkp.hpp"
#include "cop/qkp.hpp"
#include "core/dqubo_onehot.hpp"
#include "core/dqubo_solver.hpp"
#include "core/hycim_solver.hpp"
#include "qubo/qubo_matrix.hpp"
#include "runtime/executor_pool.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_news{0};
std::atomic<std::size_t> g_bytes{0};

void* counted_malloc(std::size_t size) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_aligned(std::size_t size, std::size_t align) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : 1) != 0) return nullptr;
  return p;
}

std::size_t allocation_count() {
  return g_news.load(std::memory_order_relaxed);
}

std::size_t allocated_bytes() {
  return g_bytes.load(std::memory_order_relaxed);
}

/// Allocations and requested bytes since construction.
class AllocationMeter {
 public:
  std::size_t blocks() const { return allocation_count() - blocks_; }
  std::size_t bytes() const { return allocated_bytes() - bytes_; }

 private:
  std::size_t blocks_ = allocation_count();
  std::size_t bytes_ = allocated_bytes();
};

}  // namespace

// Replacement global allocation functions (every variant the standard
// library may pick: throwing/nothrow, scalar/array, plain/aligned, plus
// the sized deletes).  All roads lead to malloc/posix_memalign so the
// deletes can uniformly free().
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned(size, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned(size, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hycim {
namespace {

using qubo::BitVector;
using qubo::QuboMatrix;

QuboMatrix random_matrix(std::size_t n, double density, util::Rng& rng) {
  QuboMatrix q(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(density)) q.set(i, i, rng.uniform(-5.0, 5.0));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) q.set(i, j, rng.uniform(-5.0, 5.0));
    }
  }
  return q;
}

void expect_walk_steady_state_is_allocation_free(qubo::Kernel kernel,
                                                 double density) {
  util::Rng rng(31);
  const std::size_t n = 96;
  const qubo::FrozenQuboPtr q = random_matrix(n, density, rng).freeze();
  ASSERT_EQ(q->kernel(), kernel);
  anneal::QuboProblem problem(q);
  anneal::SaParams params;
  params.iterations = 6000;
  params.swap_probability = 0.4;
  anneal::SaWalk walk(problem, rng.random_bits(n), params, util::Rng(7));
  walk.run_to(500);  // warmup: scratch capacities and best-so-far settle
  const std::size_t before = allocation_count();
  walk.run_to(6000);
  const std::size_t during = allocation_count() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations across " << (walk.evaluated() - 500)
      << " post-warmup trials on the " << qubo::kernel_name(kernel)
      << " kernel";
}

TEST(AllocationFree, DenseWalkSteadyState) {
  expect_walk_steady_state_is_allocation_free(qubo::Kernel::kDense, 0.6);
}

TEST(AllocationFree, SparseWalkSteadyState) {
  expect_walk_steady_state_is_allocation_free(qubo::Kernel::kSparse, 0.1);
}

/// Heap allocations one serial, trace-free solve makes.  Setup and result
/// assembly allocate; the walk and its exchange barriers must not.
std::size_t solve_allocations(const core::ConstrainedQuboForm& form,
                              core::FilterMode mode, bool tempered,
                              std::size_t iterations) {
  core::HyCimConfig config;
  config.sa.iterations = iterations;
  config.filter_mode = mode;
  if (tempered) {
    anneal::TemperingParams ladder;  // 4 replicas, a barrier every 25
    ladder.record_trace = false;
    config.search = ladder;
  }
  core::HyCimSolver solver(form, config);
  const BitVector x0(form.size(), 0);  // feasible under every ≤ row
  const std::size_t before = allocation_count();
  const core::SolveResult result = solver.solve(x0, 5);
  const std::size_t count = allocation_count() - before;
  EXPECT_EQ(result.sa.evaluated, tempered ? 4 * iterations : iterations);
  return count;
}

TEST(AllocationFree, SolveAllocationsDoNotGrowWithIterations) {
  cop::MdkpGeneratorParams mdkp;
  mdkp.n = 40;
  const struct {
    const char* name;
    core::ConstrainedQuboForm form;
  } forms[] = {
      {"max-cut", cop::to_constrained_form(cop::generate_maxcut(40, 0.3, 3))},
      {"mdkp", cop::to_constrained_form(cop::generate_mdkp(mdkp, 4))},
  };
  for (const auto& f : forms) {
    for (const auto mode :
         {core::FilterMode::kSoftware, core::FilterMode::kHardware}) {
      for (const bool tempered : {false, true}) {
        SCOPED_TRACE(std::string(f.name) +
                     (mode == core::FilterMode::kSoftware ? " software"
                                                          : " hardware") +
                     (tempered ? " tempering" : " SA"));
        EXPECT_EQ(solve_allocations(f.form, mode, tempered, 2000),
                  solve_allocations(f.form, mode, tempered, 20000));
      }
    }
  }
}

TEST(AllocationFree, IncidenceGroupingSteadyState) {
  // The constrained proposal path routes every move through
  // VariableIncidence::group; after one warmup call its scratch vectors
  // hold their capacity, and the in-place insertion sort (not
  // std::stable_sort, which buys a merge buffer per call) keeps the loop
  // allocation-free.
  std::vector<std::vector<std::uint32_t>> supports = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {2, 3, 6, 9}, {0, 4, 8, 9}, {1, 5, 7, 8}};
  cim::VariableIncidence incidence(supports, 10);
  std::vector<std::size_t> flips = {9, 0};
  (void)incidence.group(flips);  // warmup
  const std::size_t before = allocation_count();
  util::Rng rng(33);
  std::size_t touched_total = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    flips[0] = rng.index(10);
    flips[1] = (flips[0] + 1 + rng.index(9)) % 10;
    touched_total += incidence.group(flips).size();
  }
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_GT(touched_total, 0u);
}

TEST(AllocationFree, PoolDispatchAllocatesOnlyItsGroup) {
  // A fan through a warm ExecutorPool may allocate its task group and, at
  // the root, its tree's budget, but nothing per worker pass, claim or
  // park: at most 2 allocations per root fan, and one more per nested fan.
  // (The pool keeps both on the caller's stack, so it reads 0 here.)
  runtime::ExecutorPool pool(4);
  std::atomic<std::size_t> sink{0};
  const anneal::Task add = [&](std::size_t i) {
    sink.fetch_add(i, std::memory_order_relaxed);
  };
  const anneal::Task fan = [&](std::size_t) { pool.run(8, add); };
  for (int warmup = 0; warmup < 50; ++warmup) {
    pool.run(8, add);
    pool.run(2, fan);
  }
  const auto per_call = [](std::size_t allocations, std::size_t calls) {
    return static_cast<double>(allocations) / static_cast<double>(calls);
  };

  constexpr std::size_t kFlatFans = 2000;
  std::size_t before = allocation_count();
  for (std::size_t call = 0; call < kFlatFans; ++call) pool.run(8, add);
  const double flat = per_call(allocation_count() - before, kFlatFans);
  EXPECT_LE(flat, 2.0) << flat << " allocations per 8-task root fan";

  constexpr std::size_t kNestedFans = 500;
  before = allocation_count();
  for (std::size_t call = 0; call < kNestedFans; ++call) pool.run(2, fan);
  const double nested = per_call(allocation_count() - before, kNestedFans);
  EXPECT_LE(nested, 4.0) << nested
                         << " allocations per 2-task root fan of 8-task fans";
  EXPECT_GT(sink.load(), 0u);
}

TEST(AllocationBudget, ChipCloneCopiesOnlyMutableState) {
  // A clone is a fresh measurement on one fabricated chip: it shares the
  // filter arrays' cells and loads, the frozen matrices and the row
  // incidence, and copies bound states, scratch and noise streams.  On a
  // paper-suite QKP (n = 100, default quantized energies and hardware
  // filters, so no circuit engine) that is 12 blocks and about 4 KB; the
  // two deep-copied 16×100 filter arrays alone were 142 blocks and 560 KB.
  const cop::QkpInstance inst = cop::generate_paper_suite().at(3);
  ASSERT_EQ(inst.n, 100u);
  const core::HyCimSolver chip(cop::to_constrained_form(inst),
                               core::HyCimConfig{});
  std::optional<core::HyCimSolver> clone;
  const AllocationMeter meter;
  clone.emplace(chip, 12345);
  EXPECT_LE(meter.blocks(), 32u);
  EXPECT_LE(meter.bytes(), 16u * 1024u);
}

TEST(AllocationBudget, CircuitChipBuildsNoSoftwareMirror) {
  // A circuit chip's walks run on its crossbars: neither fabrication nor a
  // solve builds the software walk's kernel structure.  So the first ask
  // for the evaluation matrix's mirror builds it, writing its n² int32s
  // (the integral QKP's rows) then and not before.
  cop::QkpGeneratorParams params;
  params.n = 24;
  params.density_percent = 75;
  const cop::QkpInstance inst = cop::generate_qkp(params, 41);
  core::HyCimConfig config;
  config.sa.iterations = 200;
  config.fidelity = cim::VmvMode::kCircuit;
  core::HyCimSolver chip(cop::to_constrained_form(inst), config);
  const qubo::FrozenQubo& eval = *chip.eval_matrix();
  ASSERT_EQ(eval.kernel(), qubo::Kernel::kDense);
  util::Rng rng(43);
  (void)chip.solve(cop::random_feasible(inst, rng), 47);
  const std::size_t n = inst.n;
  const AllocationMeter meter;
  (void)eval.dense_rows();
  EXPECT_GE(meter.bytes(), n * n * sizeof(std::int32_t))
      << "the mirror was already built before it was asked for";
}

TEST(AllocationBudget, CircuitChipCloneSharesItsCrossbars) {
  // A circuit chip's VMV engine keeps its programmed bit-plane crossbars
  // in one block its clones share: a clone copies the ADC, streams and
  // bound state only.  At n = 100 and 7 bits the 14 deep-copied crossbars
  // were 113 blocks and 29.3 MB.
  cop::QkpGeneratorParams params;
  params.n = 100;
  params.density_percent = 75;
  const cop::QkpInstance inst = cop::generate_qkp(params, 53);
  core::HyCimConfig config;
  config.fidelity = cim::VmvMode::kCircuit;
  config.matrix_bits = 7;
  const core::HyCimSolver chip(cop::to_constrained_form(inst), config);
  std::optional<core::HyCimSolver> clone;
  const AllocationMeter meter;
  clone.emplace(chip, 12345);
  EXPECT_LE(meter.bytes(), 1024u * 1024u)
      << meter.bytes() << " bytes in " << meter.blocks()
      << " blocks to clone a circuit chip";
}

TEST(AllocationBudget, DquboBuildAllocatesAboutOneTriangle) {
  // The one-hot builder writes the penalty matrix once into its packed
  // triangle: at most 1.25 triangles (small blocks fit in the rest).  A
  // second copy of the triangle would double it.
  const cop::QkpInstance inst = cop::generate_paper_suite().at(0);
  const AllocationMeter meter;
  const core::DquboOneHotForm form = core::to_dqubo_onehot(inst);
  const std::size_t bytes = meter.bytes();
  const std::size_t n = form.size();
  ASSERT_EQ(n, 791u);
  const std::size_t triangle = n * (n + 1) / 2 * sizeof(double);
  EXPECT_EQ(triangle, 2505888u);
  EXPECT_LE(bytes, triangle + triangle / 4)
      << bytes << " bytes to build the D-QUBO matrix over " << n
      << " variables";
}

TEST(AllocationBudget, DquboSolverAllocatesNoMatrix) {
  // DquboSolver walks the penalty form through its aggregates: neither its
  // construction nor its first solve allocates anything N²-sized (the
  // packed triangle was 2.5 MB and the first solve's int32 mirror another
  // 2.5 MB).  Together they stay below N² bytes, one byte per matrix cell;
  // the instance copy and the n×n item block are 80 KB each.
  const cop::QkpInstance inst = cop::generate_paper_suite().at(0);
  core::DquboConfig config;
  config.fidelity = cim::VmvMode::kQuantized;
  config.sa.iterations = 200;
  const AllocationMeter meter;
  core::DquboSolver dqubo(inst, config);
  (void)dqubo.solve_from_random(1);
  const std::size_t bytes = meter.bytes();
  const std::size_t n = dqubo.size();
  ASSERT_EQ(n, 791u);
  EXPECT_LT(bytes, n * n)
      << bytes << " bytes to build a D-QUBO solver over " << n
      << " variables and solve once";
}

}  // namespace
}  // namespace hycim
