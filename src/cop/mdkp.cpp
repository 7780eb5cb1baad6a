#include "cop/mdkp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace hycim::cop {

long long MdkpInstance::total_profit(std::span<const std::uint8_t> x) const {
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

long long MdkpInstance::usage(std::span<const std::uint8_t> x,
                              std::size_t d) const {
  assert(x.size() == n);
  long long u = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i]) u += weights[d][i];
  }
  return u;
}

bool MdkpInstance::feasible(std::span<const std::uint8_t> x) const {
  for (std::size_t d = 0; d < dimensions(); ++d) {
    if (usage(x, d) > capacities[d]) return false;
  }
  return true;
}

void MdkpInstance::validate() const {
  if (profits.size() != n * n) throw std::invalid_argument("MDKP: profits");
  if (weights.size() != capacities.size()) {
    throw std::invalid_argument("MDKP: dimension count mismatch");
  }
  for (const auto& w : weights) {
    if (w.size() != n) throw std::invalid_argument("MDKP: weights size");
    for (auto v : w) {
      if (v < 0) throw std::invalid_argument("MDKP: negative weight");
    }
  }
  // Zero weights mark items absent from a dimension; an item absent from
  // *every* dimension would make the knapsack structure vacuous for it.
  for (std::size_t i = 0; i < n; ++i) {
    bool present = false;
    for (const auto& w : weights) present = present || w[i] != 0;
    if (!present) {
      throw std::invalid_argument("MDKP: item in no dimension");
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (profit(i, j) != profit(j, i)) {
        throw std::invalid_argument("MDKP: asymmetric profits");
      }
    }
  }
}

MdkpInstance generate_mdkp(const MdkpGeneratorParams& params,
                           std::uint64_t seed) {
  if (params.n == 0 || params.dimensions == 0) {
    throw std::invalid_argument("generate_mdkp: empty shape");
  }
  util::Rng rng(seed);
  MdkpInstance inst;
  inst.name = "mdkp_" + std::to_string(params.n) + "x" +
              std::to_string(params.dimensions) + "_s" + std::to_string(seed);
  inst.n = params.n;
  inst.profits.assign(params.n * params.n, 0);
  const double density = params.density_percent / 100.0;
  for (std::size_t i = 0; i < params.n; ++i) {
    for (std::size_t j = i; j < params.n; ++j) {
      if (rng.bernoulli(density)) {
        inst.set_profit(i, j, rng.uniform_int(1, params.profit_max));
      }
    }
  }
  if (params.incident_dimensions > params.dimensions) {
    throw std::invalid_argument(
        "generate_mdkp: incident_dimensions exceeds dimensions");
  }
  if (params.incident_dimensions == 0) {
    // Dense incidence: the classic MDKP, every item in every dimension.
    for (std::size_t d = 0; d < params.dimensions; ++d) {
      std::vector<long long> w(params.n);
      long long sum = 0;
      for (auto& v : w) {
        v = rng.uniform_int(1, params.weight_max);
        sum += v;
      }
      inst.weights.push_back(std::move(w));
      const double tightness =
          rng.uniform(params.tightness_lo, params.tightness_hi);
      inst.capacities.push_back(std::max<long long>(
          1, static_cast<long long>(tightness * static_cast<double>(sum))));
    }
  } else {
    // Sparse incidence: item i gets a nonzero weight in exactly
    // incident_dimensions randomly chosen rows.
    inst.weights.assign(params.dimensions,
                        std::vector<long long>(params.n, 0));
    std::vector<std::size_t> dims(params.dimensions);
    for (std::size_t d = 0; d < params.dimensions; ++d) dims[d] = d;
    for (std::size_t i = 0; i < params.n; ++i) {
      rng.shuffle(dims);
      for (std::size_t s = 0; s < params.incident_dimensions; ++s) {
        inst.weights[dims[s]][i] = rng.uniform_int(1, params.weight_max);
      }
    }
    for (std::size_t d = 0; d < params.dimensions; ++d) {
      long long sum = 0;
      for (auto v : inst.weights[d]) sum += v;
      const double tightness =
          rng.uniform(params.tightness_lo, params.tightness_hi);
      inst.capacities.push_back(std::max<long long>(
          1, static_cast<long long>(tightness * static_cast<double>(sum))));
    }
  }
  inst.validate();
  return inst;
}

qubo::BitVector random_feasible(const MdkpInstance& inst, util::Rng& rng) {
  std::vector<std::size_t> order(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) order[i] = i;
  rng.shuffle(order);
  qubo::BitVector x(inst.n, 0);
  std::vector<long long> usage(inst.dimensions(), 0);
  for (std::size_t k : order) {
    if (!rng.bernoulli(0.5)) continue;
    bool fits = true;
    for (std::size_t d = 0; d < inst.dimensions(); ++d) {
      if (usage[d] + inst.weights[d][k] > inst.capacities[d]) {
        fits = false;
        break;
      }
    }
    if (!fits) continue;
    x[k] = 1;
    for (std::size_t d = 0; d < inst.dimensions(); ++d) {
      usage[d] += inst.weights[d][k];
    }
  }
  return x;
}

qubo::BitVector greedy_solution(const MdkpInstance& inst) {
  qubo::BitVector x(inst.n, 0);
  std::vector<long long> usage(inst.dimensions(), 0);
  while (true) {
    double best_score = 0.0;
    std::size_t best = inst.n;
    for (std::size_t k = 0; k < inst.n; ++k) {
      if (x[k]) continue;
      bool fits = true;
      double load = 0.0;
      for (std::size_t d = 0; d < inst.dimensions(); ++d) {
        if (usage[d] + inst.weights[d][k] > inst.capacities[d]) {
          fits = false;
          break;
        }
        load += static_cast<double>(inst.weights[d][k]) /
                static_cast<double>(inst.capacities[d]);
      }
      if (!fits || load <= 0) continue;
      // Row k of the symmetric matrix: contiguous, unlike column k.
      long long gain = inst.profit(k, k);
      for (std::size_t i = 0; i < inst.n; ++i) {
        if (i != k && x[i]) gain += inst.profit(k, i);
      }
      if (gain <= 0) continue;
      const double score = static_cast<double>(gain) / load;
      if (best == inst.n || score > best_score) {
        best_score = score;
        best = k;
      }
    }
    if (best == inst.n) break;
    x[best] = 1;
    for (std::size_t d = 0; d < inst.dimensions(); ++d) {
      usage[d] += inst.weights[d][best];
    }
  }
  return x;
}

}  // namespace hycim::cop
