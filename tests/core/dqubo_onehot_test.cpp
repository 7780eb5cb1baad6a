#include "core/dqubo_onehot.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "qubo/brute_force.hpp"
#include "support/dqubo_reference.hpp"
#include "support/malformed_qkp.hpp"
#include "util/rng.hpp"

namespace hycim::core {
namespace {

cop::QkpInstance tiny_instance(std::uint64_t seed, std::size_t n = 5,
                               long long cap_hint = 0) {
  cop::QkpGeneratorParams params;
  params.n = n;
  params.weight_max = 6;
  params.capacity_min = 5;
  auto inst = cop::generate_qkp(params, seed);
  if (cap_hint > 0) inst.capacity = cap_hint;
  return inst;
}

TEST(DquboOneHot, DimensionIsNPlusC) {
  const auto inst = tiny_instance(1, 5, 12);
  const auto form = to_dqubo_onehot(inst);
  EXPECT_EQ(form.size(), 5u + 12u);
  EXPECT_EQ(form.n_items, 5u);
  EXPECT_EQ(form.capacity, 12);
}

TEST(DquboOneHot, MatrixEnergyEqualsObjectivePlusPenalty) {
  // The expanded QUBO must equal  -profit + p1(x, y)  for every assignment.
  const auto inst = tiny_instance(2, 5, 10);
  const auto form = to_dqubo_onehot(inst);
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const auto xy = rng.random_bits(form.size(), 0.3);
    const auto items = form.decode_items(xy);
    const double expected =
        -static_cast<double>(inst.total_profit(items)) +
        form.penalty(xy, inst);
    EXPECT_NEAR(form.q.energy(xy), expected, 1e-6) << "trial " << trial;
  }
}

TEST(DquboOneHot, PenaltyZeroIffConstraintsEncoded) {
  const auto inst = tiny_instance(4, 4, 8);
  const auto form = to_dqubo_onehot(inst);
  // Pick x with some weight W in [1, C]; set y one-hot at W: penalty = 0.
  qubo::BitVector xy(form.size(), 0);
  xy[0] = 1;  // select item 0
  const long long w = inst.weights[0];
  ASSERT_LE(w, inst.capacity);
  xy[form.n_items + static_cast<std::size_t>(w) - 1] = 1;
  EXPECT_DOUBLE_EQ(form.penalty(xy, inst), 0.0);
  // Shift the one-hot: penalty becomes positive.
  xy[form.n_items + static_cast<std::size_t>(w) - 1] = 0;
  const std::size_t wrong =
      form.n_items + (static_cast<std::size_t>(w) % static_cast<std::size_t>(
                                                        inst.capacity));
  xy[wrong] = 1;
  EXPECT_GT(form.penalty(xy, inst), 0.0);
}

TEST(DquboOneHot, GroundStateSolvesTheQkpWithSufficientPenalty) {
  // Minimizing the D-QUBO over all 2^(n+C) assignments recovers the exact
  // QKP optimum — PROVIDED the penalty dominates every possible profit
  // gain.  (The paper's evaluation corner alpha = beta = 2 does not
  // guarantee this; see WeakPaperPenaltyCanAdmitInfeasibleGroundStates.)
  const auto inst = tiny_instance(5, 5, 9);
  DquboParams strong;
  strong.alpha = strong.beta =
      static_cast<double>(inst.total_profit(qubo::BitVector(inst.n, 1))) + 1;
  const auto form = to_dqubo_onehot(inst, strong);
  ASSERT_LE(form.size(), 20u);
  const auto result = qubo::brute_force_minimize(form.q);
  const auto items = form.decode_items(result.best_x);
  EXPECT_TRUE(inst.feasible(items));
  // Exhaustive QKP optimum over 2^5 selections.
  long long best = 0;
  qubo::BitVector x(5, 0);
  for (std::uint32_t code = 0; code < 32; ++code) {
    for (std::size_t i = 0; i < 5; ++i) x[i] = (code >> i) & 1u;
    if (inst.feasible(x)) best = std::max(best, inst.total_profit(x));
  }
  EXPECT_EQ(inst.total_profit(items), best);
  EXPECT_DOUBLE_EQ(form.penalty(result.best_x, inst), 0.0);
}

TEST(DquboOneHot, WeakPaperPenaltyCanAdmitInfeasibleGroundStates) {
  // With the paper's alpha = beta = 2, a configuration slightly over
  // capacity can out-profit the quadratic penalty, so the unconstrained
  // ground state may decode to an INFEASIBLE selection.  This is one
  // mechanism behind D-QUBO's 10.75% success rate (paper Sec. 4.3).
  bool any_infeasible = false;
  for (std::uint64_t seed = 1; seed <= 12 && !any_infeasible; ++seed) {
    cop::QkpGeneratorParams params;
    params.n = 5;
    params.weight_max = 5;
    params.profit_max = 30;
    params.capacity_min = 4;
    auto inst = cop::generate_qkp(params, seed);
    inst.capacity = std::min<long long>(inst.capacity, 12);
    const auto form = to_dqubo_onehot(inst);  // alpha = beta = 2
    if (form.size() > 20) continue;
    const auto result = qubo::brute_force_minimize(form.q);
    if (!inst.feasible(form.decode_items(result.best_x))) {
      any_infeasible = true;
    }
  }
  EXPECT_TRUE(any_infeasible);
}

TEST(DquboOneHot, MaxCoefficientScalesWithCapacitySquared) {
  // (Qij)MAX ≈ 2βC² (paper Fig. 9(a): 4.0e4 at C=100 with β=2).
  const auto inst = tiny_instance(6, 5, 100);
  const auto form = to_dqubo_onehot(inst);
  const double max_abs = form.q.max_abs_coefficient();
  EXPECT_NEAR(max_abs, 2.0 * 2.0 * 100.0 * 99.0, 2.0 * 100.0);
  EXPECT_GE(form.q.quantization_bits(), 15);
}

TEST(DquboOneHot, AlphaBetaConfigurable) {
  const auto inst = tiny_instance(7, 4, 6);
  DquboParams p;
  p.alpha = 5.0;
  p.beta = 3.0;
  const auto form = to_dqubo_onehot(inst, p);
  qubo::BitVector xy(form.size(), 0);  // all-zero: one-hot violated
  EXPECT_DOUBLE_EQ(form.penalty(xy, inst), 5.0);  // alpha * (1-0)^2
  EXPECT_NEAR(form.q.energy(xy), 5.0, 1e-9);      // offset carries alpha
}

TEST(DquboOneHot, RejectsNonPositiveCapacity) {
  auto inst = tiny_instance(8, 3);
  inst.capacity = 0;
  EXPECT_THROW(to_dqubo_onehot(inst), std::invalid_argument);
}

TEST(DquboOneHot, RejectsMalformedInstances) {
  for (const auto& [what, inst] : cop::malformed_qkp(tiny_instance(9, 4))) {
    EXPECT_THROW(to_dqubo_onehot(inst), std::invalid_argument) << what;
  }
}

/// The one-pass builder against the term-by-term oracle: the same size,
/// offset and coefficient bits (so +0.0 and −0.0 are told apart).
void expect_matches_reference(const cop::QkpInstance& inst,
                              const DquboParams& params = {}) {
  const DquboOneHotForm form = to_dqubo_onehot(inst, params);
  const DquboOneHotForm ref = to_dqubo_onehot_reference(inst, params);
  ASSERT_EQ(form.size(), ref.size());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(form.q.offset()),
            std::bit_cast<std::uint64_t>(ref.q.offset()));
  const auto built = form.q.packed();
  const auto expected = ref.q.packed();
  ASSERT_EQ(built.size(), expected.size());
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < built.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(built[k]) !=
        std::bit_cast<std::uint64_t>(expected[k])) {
      if (mismatches++ == 0) {
        ADD_FAILURE() << "first mismatch at packed index " << k << ": "
                      << built[k] << " vs " << expected[k];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(DquboOneHot, OnePassBuildMatchesTermByTermOnThePaperSuite) {
  const auto suite = cop::generate_paper_suite();
  ASSERT_EQ(suite.size(), 40u);
  for (std::size_t idx = 0; idx < suite.size(); ++idx) {
    SCOPED_TRACE("paper-suite instance " + std::to_string(idx));
    expect_matches_reference(suite[idx]);
  }
}

TEST(DquboOneHot, OnePassBuildMatchesTermByTermAtTheEdges) {
  {
    SCOPED_TRACE("capacity 1");
    expect_matches_reference(tiny_instance(11, 5, 1));
  }
  {
    SCOPED_TRACE("one item");
    expect_matches_reference(tiny_instance(12, 1, 7));
  }
  {
    SCOPED_TRACE("alpha 0.3, beta 1.7");
    DquboParams p;
    p.alpha = 0.3;
    p.beta = 1.7;
    expect_matches_reference(tiny_instance(13, 8, 20), p);
    expect_matches_reference(cop::generate_paper_suite().at(5), p);
  }
  {
    // −α is −0.0 here: every slack diagonal must still sum from +0.0.
    // With β = 0 as well, every penalty term is ±0.0.
    SCOPED_TRACE("alpha 0");
    DquboParams p;
    p.alpha = 0.0;
    expect_matches_reference(tiny_instance(14, 6, 9), p);
    p.beta = 0.0;
    expect_matches_reference(tiny_instance(14, 6, 9), p);
  }
}

TEST(DquboOneHot, DecodeItemsTakesPrefix) {
  const auto inst = tiny_instance(9, 3, 5);
  const auto form = to_dqubo_onehot(inst);
  qubo::BitVector xy(form.size(), 0);
  xy[0] = 1;
  xy[2] = 1;
  xy[form.n_items + 1] = 1;
  EXPECT_EQ(form.decode_items(xy), (qubo::BitVector{1, 0, 1}));
}

}  // namespace
}  // namespace hycim::core
