// Golden digests: the exact bits the QUBO construction, quantization, and
// annealing layers produce on two instances of the paper's Fig. 10 suite
// (instance 0, density 25, sparse kernel; instance 30, density 100, dense
// kernel), pinned as literals.  Self-consistency checks (width 1 == width
// max, dense == sparse) cannot see a change that moves every path the same
// way; these can.
//
// Each digest is a 64-bit FNV-1a over the object bytes of:
//   * the one-hot D-QUBO matrix: packed triangle and offset;
//   * quantization: the D-QUBO matrix at its own ⌈log2 (Qij)MAX⌉ bits and
//     the HyCiM chip's 7-bit crossbar matrix (values, magnitude bits,
//     scale);
//   * four seeded D-QUBO runs: (best_x, proposed, evaluated, profit);
//   * four seeded HyCiM runs on one fabricated chip with quantized energies
//     and hardware filters: (best_x, proposed, evaluated, profit).
//
// Moving a literal is a trajectory change: the change must declare which
// gate of the README's gating rule it falls under.  To regenerate, build
// and run tests/integration_golden_test; every failing check prints the
// digest the current code produces — paste it over the old literal.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cim/crossbar/bit_slice.hpp"
#include "cop/adapters.hpp"
#include "cop/qkp.hpp"
#include "core/dqubo_onehot.hpp"
#include "core/dqubo_solver.hpp"
#include "core/hycim_solver.hpp"
#include "util/rng.hpp"

namespace hycim {
namespace {

constexpr std::size_t kRuns = 4;
constexpr std::size_t kIterations = 1000;
constexpr std::uint64_t kRunSeed = 2024;

/// 64-bit FNV-1a over the object representation of absorbed scalars.
class Digest {
 public:
  template <typename T>
  void absorb(const T* data, std::size_t count) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(data);
    for (std::size_t b = 0; b < count * sizeof(T); ++b) {
      hash_ = (hash_ ^ bytes[b]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void absorb(const std::vector<T>& values) {
    absorb(values.data(), values.size());
  }
  template <typename T>
  void absorb(const T& value) {
    absorb(&value, 1);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void absorb_run(Digest& d, const qubo::BitVector& best_x, std::size_t proposed,
                std::size_t evaluated, long long profit) {
  d.absorb(best_x);
  d.absorb(static_cast<std::uint64_t>(proposed));
  d.absorb(static_cast<std::uint64_t>(evaluated));
  d.absorb(profit);
}

void absorb_quantized(Digest& d, const cim::QuantizedQubo& q) {
  d.absorb(q.values);
  d.absorb(q.magnitude_bits);
  d.absorb(q.scale);
}

struct Golden {
  std::size_t instance;
  std::uint64_t dqubo_matrix;
  std::uint64_t quantized;
  std::uint64_t dqubo_runs;
  std::uint64_t hycim_runs;
};

constexpr Golden kGolden[] = {
    {0, 0x86809324e0f73467ULL, 0xb9fa1a14051e55a7ULL, 0x3ce94a993865d210ULL,
     0x281ec03ef8d373b2ULL},
    {30, 0x0c04e72dd62019ccULL, 0x17a913fa1becb789ULL, 0xcc15dc94ce2b1851ULL,
     0x0c99d7ccff989329ULL},
};

void expect_digest(const char* what, std::uint64_t actual,
                   std::uint64_t expected) {
  EXPECT_EQ(actual, expected)
      << what << ": the current code produces 0x" << std::hex << actual;
}

TEST(Golden, PaperSuiteDigests) {
  const std::vector<cop::QkpInstance> suite = cop::generate_paper_suite();
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE("paper-suite instance " + std::to_string(golden.instance));
    const cop::QkpInstance& inst = suite.at(golden.instance);

    const core::DquboOneHotForm form = core::to_dqubo_onehot(inst);
    Digest matrix;
    matrix.absorb(form.q.packed().data(), form.q.packed().size());
    matrix.absorb(form.q.offset());
    expect_digest("D-QUBO matrix", matrix.value(), golden.dqubo_matrix);

    core::HyCimConfig hycim;
    hycim.sa.iterations = kIterations;
    hycim.fidelity = cim::VmvMode::kQuantized;
    hycim.filter_mode = core::FilterMode::kHardware;
    core::HyCimSolver chip(cop::to_constrained_form(inst), hycim);

    Digest quantized;
    absorb_quantized(quantized,
                     cim::quantize(form.q, form.q.quantization_bits()));
    absorb_quantized(quantized, chip.engine().quantized());
    expect_digest("quantization", quantized.value(), golden.quantized);

    core::DquboConfig dqubo_config;
    dqubo_config.sa.iterations = kIterations;
    dqubo_config.fidelity = cim::VmvMode::kQuantized;
    core::DquboSolver dqubo(inst, dqubo_config);
    util::Rng dqubo_rng(kRunSeed);
    Digest dqubo_runs;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const qubo::BitVector xy0 = dqubo.random_initial(dqubo_rng);
      const auto result = dqubo.solve(xy0, dqubo_rng.next_u64());
      absorb_run(dqubo_runs, result.best_x, result.sa.proposed,
                 result.sa.evaluated, result.profit);
    }
    expect_digest("D-QUBO runs", dqubo_runs.value(), golden.dqubo_runs);

    util::Rng hycim_rng(kRunSeed);
    Digest hycim_runs;
    for (std::size_t r = 0; r < kRuns; ++r) {
      const qubo::BitVector x0 = cop::random_feasible(inst, hycim_rng);
      core::HyCimSolver run(chip, hycim_rng.next_u64() | 1);
      const core::SolveResult result = run.solve(x0, hycim_rng.next_u64());
      const long long profit =
          result.feasible ? inst.total_profit(result.best_x) : 0;
      absorb_run(hycim_runs, result.best_x, result.sa.proposed,
                 result.sa.evaluated, profit);
    }
    expect_digest("HyCiM runs", hycim_runs.value(), golden.hycim_runs);
  }
}

}  // namespace
}  // namespace hycim
