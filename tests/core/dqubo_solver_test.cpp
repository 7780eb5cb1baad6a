#include "core/dqubo_solver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "anneal/qubo_problem.hpp"
#include "core/exact.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance small_instance(std::uint64_t seed, std::size_t n = 10,
                                long long cap = 0) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.weight_max = 10;
  params.capacity_min = 8;
  auto inst = cop::generate_qkp(params, seed);
  if (cap > 0) inst.capacity = cap;
  return inst;
}

DquboConfig fast_config(std::size_t iterations = 3000) {
  DquboConfig config;
  config.sa.iterations = iterations;
  config.fidelity = cim::VmvMode::kIdeal;
  return config;
}

TEST(DquboSolver, DimensionIsNPlusC) {
  const auto inst = small_instance(1, 10, 25);
  DquboSolver solver(inst, fast_config());
  EXPECT_EQ(solver.size(), 35u);
  EXPECT_EQ(solver.n_items(), 10u);
}

TEST(DquboSolver, BinaryEncodingShrinksDimension) {
  const auto inst = small_instance(2, 10, 25);
  DquboConfig config = fast_config();
  config.encoding = SlackEncoding::kBinary;
  DquboSolver solver(inst, config);
  EXPECT_LT(solver.size(), 10u + 8u);
}

TEST(DquboSolver, MatrixBitsFollowCoefficients) {
  const auto inst = small_instance(3, 10, 100);
  DquboSolver solver(inst, fast_config());
  // (Qij)MAX ~ 2*beta*C^2 = 4e4 -> around 16 bits (paper Fig. 9(a)).
  EXPECT_GE(solver.matrix_bits(), 14);
  EXPECT_LE(solver.matrix_bits(), 17);
  EXPECT_GT(solver.max_abs_coefficient(), 1e4);
}

TEST(DquboSolver, SolveDecodesItemSelection) {
  const auto inst = small_instance(4, 8, 20);
  DquboSolver solver(inst, fast_config());
  const auto result = solver.solve_from_random(1);
  EXPECT_EQ(result.best_x.size(), inst.n);
  if (result.feasible) {
    EXPECT_EQ(result.profit, inst.total_profit(result.best_x));
  } else {
    EXPECT_EQ(result.profit, 0);
  }
}

TEST(DquboSolver, CanSolveSmallInstancesGivenManyRestarts) {
  const auto inst = small_instance(5, 8, 15);
  const auto truth = exact_qkp(inst);
  // Use a penalty strong enough that feasible decodes are actually optimal
  // for the annealer to find (the paper corner alpha=beta=2 is exercised by
  // the Fig. 10 bench, where its weakness is the result).
  DquboConfig config = fast_config(5000);
  config.penalty.alpha = config.penalty.beta =
      static_cast<double>(inst.total_profit(qubo::BitVector(inst.n, 1))) + 1;
  DquboSolver solver(inst, config);
  long long best = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto result = solver.solve_from_random(seed);
    best = std::max(best, result.profit);
  }
  // D-QUBO is weak but not totally broken on tiny instances.
  EXPECT_GE(best, truth.best_profit / 2);
}

TEST(DquboSolver, RandomInitialHasOneHotSlack) {
  const auto inst = small_instance(6, 8, 30);
  DquboSolver solver(inst, fast_config());
  util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto xy = solver.random_initial(rng);
    ASSERT_EQ(xy.size(), solver.size());
    int hot = 0;
    for (std::size_t k = inst.n; k < xy.size(); ++k) hot += xy[k];
    EXPECT_EQ(hot, 1);
  }
}

TEST(DquboSolver, RejectsWrongInitialSize) {
  const auto inst = small_instance(8, 8, 10);
  DquboSolver solver(inst, fast_config());
  EXPECT_THROW(solver.solve(qubo::BitVector(3, 0), 1), std::invalid_argument);
}

TEST(DquboSolver, DeterministicForFixedSeed) {
  const auto inst = small_instance(9, 8, 12);
  DquboSolver solver(inst, fast_config(500));
  const auto a = solver.solve_from_random(42);
  const auto b = solver.solve_from_random(42);
  EXPECT_EQ(a.profit, b.profit);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(DquboSolver, NoInfeasibleRejections) {
  // D-QUBO has no filter: nothing is ever rejected as infeasible.
  const auto inst = small_instance(10, 8, 12);
  DquboSolver solver(inst, fast_config(1000));
  const auto result = solver.solve_from_random(3);
  EXPECT_EQ(result.sa.rejected_infeasible, 0u);
}

TEST(DquboSolver, MatrixAccessorsConsistent) {
  const auto inst = small_instance(11, 6, 15);
  DquboSolver solver(inst, fast_config());
  const DquboOneHotForm form = to_dqubo_onehot(inst);
  EXPECT_EQ(solver.size(), form.size());
  EXPECT_EQ(solver.max_abs_coefficient(), form.q.max_abs_coefficient());
  EXPECT_EQ(solver.matrix_bits(), form.q.quantization_bits());
}

TEST(DquboSolver, RejectsCircuitFidelity) {
  // The walk reads only the evaluation matrix: a circuit setting would
  // fabricate crossbars nothing reads.
  DquboConfig config = fast_config();
  config.fidelity = cim::VmvMode::kCircuit;
  EXPECT_THROW(DquboSolver(small_instance(13, 6, 15), config),
               std::invalid_argument);
}

TEST(DquboSolver, RejectsAnAsymmetricProfitMatrix) {
  // The tracked marginal sums a profit row where the QUBO reads a column:
  // the two agree only for a symmetric matrix, which the lowering checks.
  auto inst = small_instance(12, 6, 15);
  inst.profits[0 * inst.n + 1] += 1;  // p_01 != p_10
  for (const auto encoding : {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
    DquboConfig config = fast_config();
    config.encoding = encoding;
    EXPECT_THROW(DquboSolver(inst, config), std::invalid_argument);
  }
}


/// The penalty matrix the closed-form walk stands for, built by the
/// library's one-pass builders.
qubo::FrozenQuboPtr penalty_matrix(const cop::QkpInstance& inst,
                                   const DquboConfig& config) {
  return config.encoding == SlackEncoding::kOneHot
             ? to_dqubo_onehot(inst, config.penalty).q.freeze()
             : to_dqubo_binary(inst, config.penalty.beta).q.freeze();
}

/// The matrix walk with the best feasible selection the solver reports,
/// taken the slow way: after the reset and every commit, a state whose
/// items fit has its profit summed from scratch.
class FeasibleTracker final : public anneal::SaProblem {
 public:
  FeasibleTracker(const qubo::FrozenQuboPtr& q, const cop::QkpInstance& inst)
      : walk_(q), inst_(inst) {}
  std::size_t num_bits() const override { return walk_.num_bits(); }
  double reset(const qubo::BitVector& x) override {
    const double e = walk_.reset(x);
    note();
    return e;
  }
  double trial_delta(const anneal::Move& m) override {
    return walk_.trial_delta(m);
  }
  void commit(const anneal::Move& m) override {
    walk_.commit(m);
    note();
  }
  const qubo::BitVector& state() const override { return walk_.state(); }
  bool supports_swaps() const override { return true; }

  long long profit = -1;
  qubo::BitVector items;

 private:
  void note() {
    const qubo::BitVector x(walk_.state().begin(),
                            walk_.state().begin() + static_cast<long>(inst_.n));
    if (!inst_.feasible(x)) return;
    const long long p = inst_.total_profit(x);
    if (p > profit) {
      profit = p;
      items = x;
    }
  }

  anneal::QuboProblem walk_;
  const cop::QkpInstance& inst_;
};

std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// Walks `inst` under `config` from `xy0` twice — the solver's closed form
/// and the penalty matrix's evaluator — and compares every field of the
/// two results, energies and traces by their bits.
void expect_walks_match(const cop::QkpInstance& inst, DquboConfig config,
                        const qubo::BitVector& xy0, std::uint64_t seed) {
  config.sa.record_trace = true;
  DquboSolver solver(inst, config);
  ASSERT_EQ(xy0.size(), solver.size());
  const QkpSolveResult got = solver.solve(xy0, seed);

  FeasibleTracker matrix_walk(penalty_matrix(inst, config), inst);
  anneal::SaParams sa = config.sa;
  sa.seed = seed;
  const anneal::SaResult want =
      anneal::simulated_annealing(matrix_walk, xy0, sa);

  EXPECT_EQ(got.sa.best_x, want.best_x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sa.best_energy),
            std::bit_cast<std::uint64_t>(want.best_energy));
  EXPECT_EQ(got.sa.final_x, want.final_x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sa.final_energy),
            std::bit_cast<std::uint64_t>(want.final_energy));
  EXPECT_EQ(got.sa.proposed, want.proposed);
  EXPECT_EQ(got.sa.evaluated, want.evaluated);
  EXPECT_EQ(got.sa.accepted, want.accepted);
  EXPECT_EQ(got.sa.rejected_infeasible, want.rejected_infeasible);
  EXPECT_EQ(got.sa.rejected_metropolis, want.rejected_metropolis);
  EXPECT_EQ(bits_of(got.sa.trace), bits_of(want.trace));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_energy),
            std::bit_cast<std::uint64_t>(want.best_energy));
  if (matrix_walk.profit >= 0) {
    EXPECT_TRUE(got.feasible);
    EXPECT_EQ(got.profit, matrix_walk.profit);
    EXPECT_EQ(got.best_x, matrix_walk.items);
  }
}

DquboConfig walk_config(SlackEncoding encoding, double alpha, double beta,
                        std::size_t iterations) {
  DquboConfig config;
  config.encoding = encoding;
  config.penalty.alpha = alpha;
  config.penalty.beta = beta;
  config.sa.iterations = iterations;
  return config;
}

TEST(DquboSolver, WalkMatchesThePenaltyMatrixWalk) {
  // Integral α and β make every coefficient an integer and every field and
  // energy an exact double, so the closed form's walk is the matrix walk
  // bit for bit: same deltas, same rng draws, same trajectory.  Starts are
  // random over all bits (many hot slack levels, many items) as well as
  // the solver's own one-hot draw.
  const std::vector<cop::QkpInstance> suite = cop::generate_paper_suite();
  util::Rng rng(2718);
  for (const std::size_t index : {0, 4, 9, 13, 18, 22, 27, 31, 36, 39}) {
    const cop::QkpInstance& inst = suite.at(index);
    for (const auto encoding :
         {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
      SCOPED_TRACE("paper-suite instance " + std::to_string(index) +
                   (encoding == SlackEncoding::kOneHot ? " one-hot"
                                                       : " binary"));
      const DquboConfig config = walk_config(encoding, 2, 2, 1500);
      const DquboSolver solver(inst, config);
      expect_walks_match(inst, config, rng.random_bits(solver.size()),
                         rng.next_u64());
      expect_walks_match(inst, config, solver.random_initial(rng),
                         rng.next_u64());
    }
  }

  // Small generated instances from capacity 1 up, under penalty corners
  // that leave zero coefficients (α = 0, β = 0) and penalties far above
  // the profits.
  const struct {
    double alpha, beta;
  } corners[] = {{2, 2}, {0, 0}, {0, 3}, {5, 1}, {1, 0}, {40, 17}};
  for (std::size_t n = 3; n <= 22; n += 1) {
    for (const long long cap : {1LL, 2LL, 7LL, 30LL}) {
      cop::QkpGeneratorParams params;
      params.n = n;
      params.density_percent = 10 + static_cast<int>(n * 4);
      params.weight_max = 12;
      params.capacity_min = 1;
      cop::QkpInstance inst = cop::generate_qkp(params, 100 * n + cap);
      inst.capacity = cap;
      for (const auto& corner : corners) {
        for (const auto encoding :
             {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
          SCOPED_TRACE("n " + std::to_string(n) + ", C " + std::to_string(cap) +
                       ", alpha " + std::to_string(corner.alpha) + ", beta " +
                       std::to_string(corner.beta));
          const DquboConfig config =
              walk_config(encoding, corner.alpha, corner.beta, 300);
          const std::size_t size = DquboSolver(inst, config).size();
          expect_walks_match(inst, config, rng.random_bits(size),
                             rng.next_u64());
        }
      }
    }
  }
}

TEST(DquboSolver, WalkMatchesAtTheExactBound) {
  // The largest admitted β, and profits that cancel their weight products
  // exactly: the closed form stays exact where its terms are far apart.
  cop::QkpInstance tiny;
  tiny.n = 1;
  tiny.capacity = 1;
  tiny.weights = {1};
  tiny.profits = {0};
  util::Rng rng(31);
  DquboConfig binary = walk_config(SlackEncoding::kBinary, 2,
                                   900719925474099.0, 200);
  for (int run = 0; run < 20; ++run) {
    expect_walks_match(tiny, binary, rng.random_bits(2), rng.next_u64());
  }

  cop::QkpInstance cancel;
  cancel.n = 3;
  cancel.capacity = 3;
  cancel.weights = {1LL << 30, 1LL << 30, 3};
  cancel.profits.assign(9, 0);
  // Profits a double holds exactly (so the builders' matrix is exact too):
  // q_00 = 0, q_01 = 5120, q_11 = −4608.
  cancel.set_profit(0, 0, 1LL << 61);  // β w_0² with β = 2
  cancel.set_profit(0, 1, (1LL << 62) - 5120);
  cancel.set_profit(1, 1, (1LL << 61) + 4608);
  cancel.set_profit(2, 2, 4);
  for (const auto encoding : {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
    const DquboConfig config = walk_config(encoding, 2, 2, 300);
    const std::size_t size = DquboSolver(cancel, config).size();
    for (int run = 0; run < 20; ++run) {
      expect_walks_match(cancel, config, rng.random_bits(size), rng.next_u64());
    }
  }
}

void expect_max_matches(const cop::QkpInstance& inst, double alpha,
                        double beta) {
  for (const auto encoding : {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
    SCOPED_TRACE(encoding == SlackEncoding::kOneHot ? "one-hot" : "binary");
    const DquboConfig config = walk_config(encoding, alpha, beta, 10);
    const DquboSolver solver(inst, config);
    const qubo::FrozenQuboPtr q = penalty_matrix(inst, config);
    EXPECT_EQ(solver.size(), q->size());
    EXPECT_EQ(solver.max_abs_coefficient(), q->max_abs_coefficient());
    EXPECT_EQ(solver.max_abs_coefficient(), q->matrix().max_abs_coefficient());
    EXPECT_EQ(solver.matrix_bits(), q->quantization_bits());
  }
}

TEST(DquboSolver, MaxCoefficientMatchesTheBuiltMatrix) {
  const std::vector<cop::QkpInstance> suite = cop::generate_paper_suite();
  for (std::size_t k = 0; k < suite.size(); ++k) {
    SCOPED_TRACE("paper-suite instance " + std::to_string(k));
    expect_max_matches(suite[k], 2, 2);
  }

  cop::QkpInstance one;  // n = 1, C = 1
  one.n = 1;
  one.capacity = 1;
  one.weights = {3};
  one.profits = {7};
  cop::QkpInstance zero_profits = small_instance(21, 9, 1);
  std::fill(zero_profits.profits.begin(), zero_profits.profits.end(), 0);
  cop::QkpInstance binary_clamp = small_instance(22, 6, 5);  // levels 1, 2, 2
  for (const auto* inst : {&one, &zero_profits, &binary_clamp}) {
    for (const auto& [alpha, beta] :
         {std::pair{2.0, 2.0}, std::pair{0.0, 0.0}, std::pair{9.0, 0.0},
          std::pair{0.0, 5.0}, std::pair{100.0, 1.0}}) {
      SCOPED_TRACE(inst->name + " alpha " + std::to_string(alpha) + " beta " +
                   std::to_string(beta));
      expect_max_matches(*inst, alpha, beta);
    }
  }
}

TEST(DquboSolver, RejectsPenaltiesThatAreNotNonNegativeIntegers) {
  // The closed form is exact only on integer coefficients.
  const auto inst = small_instance(14, 6, 15);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto encoding : {SlackEncoding::kOneHot, SlackEncoding::kBinary}) {
    for (const double bad : {0.5, 2.25, -1.0, -2.0, nan, inf}) {
      DquboConfig config = fast_config();
      config.encoding = encoding;
      config.penalty.alpha = bad;
      EXPECT_THROW(DquboSolver(inst, config), std::invalid_argument) << bad;
      config.penalty.alpha = 2;
      config.penalty.beta = bad;
      EXPECT_THROW(DquboSolver(inst, config), std::invalid_argument) << bad;
    }
    DquboConfig integral = fast_config();
    integral.encoding = encoding;
    integral.penalty = {0.0, 7.0};
    EXPECT_NO_THROW(DquboSolver(inst, integral));
  }
}

TEST(DquboSolver, RejectsFormsPastTheExactBound) {
  // 2·(|offset| + Σ|Q_ij|) must stay below 2^53.  n = 1, C = 1, w = 1,
  // p = 0: binary sums offset β + item β + slack β + coupling 2β = 5β;
  // one-hot with α = 0 sums item β + slack β + coupling 2β = 4β; one-hot
  // at α = β = 2 sums 2(w + 1)².
  cop::QkpInstance tiny;
  tiny.n = 1;
  tiny.capacity = 1;
  tiny.weights = {1};
  tiny.profits = {0};
  const auto build = [&](SlackEncoding encoding, double alpha, double beta) {
    DquboConfig config = fast_config();
    config.encoding = encoding;
    config.penalty = {alpha, beta};
    return DquboSolver(tiny, config);
  };
  const double five_beta_max = 900719925474099.0;  // 5β = 2^52 − 1
  EXPECT_NO_THROW(build(SlackEncoding::kBinary, 2, five_beta_max));
  EXPECT_THROW(build(SlackEncoding::kBinary, 2, five_beta_max + 1),
               std::invalid_argument);
  EXPECT_NO_THROW(build(SlackEncoding::kOneHot, 0, std::ldexp(1.0, 50) - 1));
  EXPECT_THROW(build(SlackEncoding::kOneHot, 0, std::ldexp(1.0, 50)),
               std::invalid_argument);
  EXPECT_THROW(build(SlackEncoding::kOneHot, std::ldexp(1.0, 60), 2),
               std::invalid_argument);
  EXPECT_THROW(build(SlackEncoding::kBinary, 2, 1e300), std::invalid_argument);

  // Slack pairs: at C = 2, one-hot with α = 0 sums item β, couplings
  // 2β(1 + 2), pair 2β·2 and levels β + 4β = 16β; at C = 3, binary
  // (levels 1, 2) sums offset 9β, item 5β, couplings 6β, pair 4β and
  // levels 5β + 8β = 37β.
  tiny.capacity = 2;
  EXPECT_NO_THROW(build(SlackEncoding::kOneHot, 0, std::ldexp(1.0, 48) - 1));
  EXPECT_THROW(build(SlackEncoding::kOneHot, 0, std::ldexp(1.0, 48)),
               std::invalid_argument);
  tiny.capacity = 3;
  const double thirty_seven_beta_max = 121718908847851.0;
  EXPECT_NO_THROW(build(SlackEncoding::kBinary, 0, thirty_seven_beta_max));
  EXPECT_THROW(build(SlackEncoding::kBinary, 0, thirty_seven_beta_max + 1),
               std::invalid_argument);
  tiny.capacity = 1;

  tiny.weights = {47453131};  // 2(w + 1)² < 2^52
  EXPECT_NO_THROW(build(SlackEncoding::kOneHot, 2, 2));
  tiny.weights = {47453132};
  EXPECT_THROW(build(SlackEncoding::kOneHot, 2, 2), std::invalid_argument);
  tiny.weights = {std::numeric_limits<long long>::max()};
  EXPECT_THROW(build(SlackEncoding::kOneHot, 2, 2), std::invalid_argument);
  EXPECT_THROW(build(SlackEncoding::kBinary, 2, 2), std::invalid_argument);

  // A profit past the bound, and a capacity whose slack levels are.
  tiny.weights = {1};
  tiny.profits = {1LL << 62};
  EXPECT_THROW(build(SlackEncoding::kOneHot, 2, 2), std::invalid_argument);
  tiny.profits = {0};
  tiny.capacity = 1LL << 40;
  EXPECT_THROW(build(SlackEncoding::kOneHot, 2, 2), std::invalid_argument);
  EXPECT_THROW(build(SlackEncoding::kBinary, 2, 2), std::invalid_argument);
}

}  // namespace
}  // namespace hycim::core
