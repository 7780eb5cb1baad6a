// Linear (0/1) knapsack problem: the special case of QKP with no pairwise
// profits, with an exact dynamic-programming solver.  A test oracle: the
// transformations and exact solvers are checked against the DP on linear
// instances.  Header-only so each test target includes it directly.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cop/qkp.hpp"
#include "util/rng.hpp"

namespace hycim::cop {

/// One linear knapsack instance.
struct KnapsackInstance {
  std::string name;
  long long capacity = 0;
  std::vector<long long> weights;  ///< w_i >= 1
  std::vector<long long> values;   ///< v_i >= 0

  std::size_t size() const { return weights.size(); }
  /// Total weight of a selection.
  long long total_weight(std::span<const std::uint8_t> x) const {
    assert(x.size() == size());
    long long w = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i]) w += weights[i];
    }
    return w;
  }
  /// Total value of a selection.
  long long total_value(std::span<const std::uint8_t> x) const {
    assert(x.size() == size());
    long long v = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i]) v += values[i];
    }
    return v;
  }
  /// True iff the selection fits in the knapsack.
  bool feasible(std::span<const std::uint8_t> x) const {
    return total_weight(x) <= capacity;
  }
};

/// Result of the exact DP solver.
struct KnapsackSolution {
  BitVector x;           ///< optimal selection
  long long value = 0;   ///< optimal total value
  long long weight = 0;  ///< weight of the optimal selection
};

/// Exact O(n·C) dynamic program over capacities; reconstructs the selection.
/// Throws std::invalid_argument if n·C exceeds 10^9 table cells.
inline KnapsackSolution solve_knapsack_dp(const KnapsackInstance& inst) {
  const std::size_t n = inst.size();
  const long long cap = inst.capacity;
  if (cap < 0) throw std::invalid_argument("knapsack: negative capacity");
  if (static_cast<long long>(n) * (cap + 1) > 1'000'000'000LL) {
    throw std::invalid_argument("knapsack DP: table too large");
  }
  const auto width = static_cast<std::size_t>(cap + 1);
  // best[i][c] = max value using items [0, i) within capacity c.
  std::vector<long long> prev(width, 0), cur(width, 0);
  std::vector<std::uint8_t> take(n * width, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const long long w = inst.weights[i];
    const long long v = inst.values[i];
    for (long long c = 0; c <= cap; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      cur[ci] = prev[ci];
      if (w <= c && prev[static_cast<std::size_t>(c - w)] + v > cur[ci]) {
        cur[ci] = prev[static_cast<std::size_t>(c - w)] + v;
        take[i * width + ci] = 1;
      }
    }
    std::swap(prev, cur);
  }
  KnapsackSolution sol;
  sol.x.assign(n, 0);
  sol.value = prev[width - 1];
  long long c = cap;
  for (std::size_t i = n; i-- > 0;) {
    if (take[i * width + static_cast<std::size_t>(c)]) {
      sol.x[i] = 1;
      c -= inst.weights[i];
    }
  }
  sol.weight = inst.total_weight(sol.x);
  assert(sol.weight <= inst.capacity);
  assert(inst.total_value(sol.x) == sol.value);
  return sol;
}

/// Random instance: w ∈ U[1,w_max], v ∈ U[1,v_max], C ∈ U[c_min, Σw].
inline KnapsackInstance generate_knapsack(std::size_t n, std::uint64_t seed,
                                          long long w_max = 50,
                                          long long v_max = 100,
                                          long long c_min = 50) {
  util::Rng rng(seed);
  KnapsackInstance inst;
  inst.name = "kp_" + std::to_string(n) + "_s" + std::to_string(seed);
  inst.weights.resize(n);
  inst.values.resize(n);
  for (auto& w : inst.weights) w = rng.uniform_int(1, w_max);
  for (auto& v : inst.values) v = rng.uniform_int(1, v_max);
  const long long wsum =
      std::accumulate(inst.weights.begin(), inst.weights.end(), 0LL);
  inst.capacity = rng.uniform_int(std::min(c_min, wsum), wsum);
  return inst;
}

/// Views a knapsack instance as a QKP with a zero off-diagonal profit matrix
/// (so all QKP machinery — transformations, solvers — applies unchanged).
inline QkpInstance to_qkp(const KnapsackInstance& inst) {
  QkpInstance q;
  q.name = inst.name + "_as_qkp";
  q.n = inst.size();
  q.capacity = inst.capacity;
  q.weights = inst.weights;
  q.profits.assign(q.n * q.n, 0);
  for (std::size_t i = 0; i < q.n; ++i) q.set_profit(i, i, inst.values[i]);
  q.validate();
  return q;
}

}  // namespace hycim::cop
