#include "cop/qkp.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace hycim::cop {

long long QkpInstance::total_weight(std::span<const std::uint8_t> x) const {
  assert(x.size() == n);
  long long w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i]) w += weights[i];
  }
  return w;
}

long long QkpInstance::total_profit(std::span<const std::uint8_t> x) const {
  assert(x.size() == n);
  long long p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!x[i]) continue;
    p += profit(i, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      if (x[j]) p += profit(i, j);
    }
  }
  return p;
}

bool QkpInstance::feasible(std::span<const std::uint8_t> x) const {
  return total_weight(x) <= capacity;
}

long long QkpInstance::max_weight() const {
  return weights.empty() ? 0 : *std::max_element(weights.begin(), weights.end());
}

long long QkpInstance::weight_sum() const {
  return std::accumulate(weights.begin(), weights.end(), 0LL);
}

void QkpInstance::validate() const {
  if (weights.size() != n) throw std::invalid_argument("QKP: weights size");
  if (profits.size() != n * n) throw std::invalid_argument("QKP: profits size");
  if (capacity < 0) throw std::invalid_argument("QKP: negative capacity");
  for (auto w : weights) {
    if (w < 1) throw std::invalid_argument("QKP: weight < 1");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (profit(i, j) != profit(j, i)) {
        throw std::invalid_argument("QKP: asymmetric profit matrix");
      }
    }
  }
}

QkpInstance generate_qkp(const QkpGeneratorParams& params, std::uint64_t seed) {
  if (params.n == 0) throw std::invalid_argument("generate_qkp: n == 0");
  if (params.density_percent < 1 || params.density_percent > 100) {
    throw std::invalid_argument("generate_qkp: density out of range");
  }
  util::Rng rng(seed);
  QkpInstance inst;
  inst.name = "gen_" + std::to_string(params.n) + "_" +
              std::to_string(params.density_percent) + "_s" +
              std::to_string(seed);
  inst.n = params.n;
  inst.weights.resize(params.n);
  inst.profits.assign(params.n * params.n, 0);

  const double density = params.density_percent / 100.0;
  for (std::size_t i = 0; i < params.n; ++i) {
    // Diagonal (individual) profits follow the same density/range rule as
    // the published generator.
    if (rng.bernoulli(density)) {
      inst.set_profit(i, i, rng.uniform_int(1, params.profit_max));
    }
    for (std::size_t j = i + 1; j < params.n; ++j) {
      if (rng.bernoulli(density)) {
        inst.set_profit(i, j, rng.uniform_int(1, params.profit_max));
      }
    }
  }
  for (auto& w : inst.weights) w = rng.uniform_int(1, params.weight_max);
  const long long wsum = inst.weight_sum();
  const long long cap_lo = std::min(params.capacity_min, wsum);
  inst.capacity = rng.uniform_int(cap_lo, wsum);
  inst.validate();
  return inst;
}

std::vector<QkpInstance> generate_paper_suite(std::size_t n,
                                              std::uint64_t base_seed) {
  std::vector<QkpInstance> suite;
  suite.reserve(40);
  for (int density : {25, 50, 75, 100}) {
    for (int k = 1; k <= 10; ++k) {
      QkpGeneratorParams params;
      params.n = n;
      params.density_percent = density;
      // The paper's instances show D-QUBO dimensions of 200-2636 (Fig. 9(b)),
      // i.e. capacities of at least ~100; pin the floor accordingly.
      params.capacity_min = 100;
      const std::uint64_t seed =
          base_seed * 1000003ULL + static_cast<std::uint64_t>(density) * 101 +
          static_cast<std::uint64_t>(k);
      QkpInstance inst = generate_qkp(params, seed);
      inst.name = "gen_" + std::to_string(n) + "_" + std::to_string(density) +
                  "_" + std::to_string(k);
      suite.push_back(std::move(inst));
    }
  }
  return suite;
}

namespace {

/// Marginal profit of adding item k to selection x (diagonal + pairwise
/// interactions with already-selected items).
long long marginal_profit(const QkpInstance& inst,
                          std::span<const std::uint8_t> x, std::size_t k) {
  // Row k, not column k: the matrix is symmetric (validate() checks it),
  // and the row is contiguous where the column strides n entries.
  long long p = inst.profit(k, k);
  for (std::size_t i = 0; i < inst.n; ++i) {
    if (i != k && x[i]) p += inst.profit(k, i);
  }
  return p;
}

}  // namespace

BitVector greedy_solution(const QkpInstance& inst) {
  BitVector x(inst.n, 0);
  long long weight = 0;
  while (true) {
    double best_ratio = 0.0;
    std::size_t best = inst.n;
    for (std::size_t k = 0; k < inst.n; ++k) {
      if (x[k] || weight + inst.weights[k] > inst.capacity) continue;
      const long long gain = marginal_profit(inst, x, k);
      if (gain <= 0) continue;
      const double ratio =
          static_cast<double>(gain) / static_cast<double>(inst.weights[k]);
      if (best == inst.n || ratio > best_ratio) {
        best_ratio = ratio;
        best = k;
      }
    }
    if (best == inst.n) break;
    x[best] = 1;
    weight += inst.weights[best];
  }
  return x;
}

BitVector repair(const QkpInstance& inst, BitVector x) {
  long long weight = inst.total_weight(x);
  while (weight > inst.capacity) {
    // Drop the selected item with the worst profit density.
    double worst_ratio = 0.0;
    std::size_t worst = inst.n;
    for (std::size_t k = 0; k < inst.n; ++k) {
      if (!x[k]) continue;
      const long long contribution = marginal_profit(inst, x, k);
      const double ratio = static_cast<double>(contribution) /
                           static_cast<double>(inst.weights[k]);
      if (worst == inst.n || ratio < worst_ratio) {
        worst_ratio = ratio;
        worst = k;
      }
    }
    assert(worst < inst.n);
    x[worst] = 0;
    weight -= inst.weights[worst];
  }
  return x;
}

BitVector local_search(const QkpInstance& inst, BitVector x0, int max_rounds) {
  if (!inst.feasible(x0)) {
    throw std::invalid_argument("local_search: infeasible start");
  }
  BitVector x = std::move(x0);
  long long weight = inst.total_weight(x);
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // 1-flip: add any item with positive marginal profit that fits, remove
    // any item with negative contribution.
    for (std::size_t k = 0; k < inst.n; ++k) {
      const long long gain = marginal_profit(inst, x, k);
      if (!x[k] && gain > 0 && weight + inst.weights[k] <= inst.capacity) {
        x[k] = 1;
        weight += inst.weights[k];
        improved = true;
      } else if (x[k] && gain < 0) {
        x[k] = 0;
        weight -= inst.weights[k];
        improved = true;
      }
    }
    // 1-swap: replace a selected item with an unselected one when profitable.
    for (std::size_t out = 0; out < inst.n; ++out) {
      if (!x[out]) continue;
      x[out] = 0;
      const long long w_without = weight - inst.weights[out];
      const long long lost = marginal_profit(inst, x, out);
      bool swapped = false;
      for (std::size_t in = 0; in < inst.n; ++in) {
        if (x[in] || in == out) continue;
        if (w_without + inst.weights[in] > inst.capacity) continue;
        if (marginal_profit(inst, x, in) > lost) {
          x[in] = 1;
          weight = w_without + inst.weights[in];
          swapped = true;
          improved = true;
          break;
        }
      }
      if (!swapped) x[out] = 1;  // restore; weight is unchanged
    }
    if (!improved) break;
  }
  return x;
}

BitVector random_feasible(const QkpInstance& inst, util::Rng& rng) {
  std::vector<std::size_t> order(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) order[i] = i;
  rng.shuffle(order);
  BitVector x(inst.n, 0);
  long long weight = 0;
  for (std::size_t k : order) {
    if (weight + inst.weights[k] <= inst.capacity && rng.bernoulli(0.5)) {
      x[k] = 1;
      weight += inst.weights[k];
    }
  }
  return x;
}

}  // namespace hycim::cop
