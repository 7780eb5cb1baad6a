#include "cop/adapters.hpp"

#include <stdexcept>
#include <utility>

#include "core/inequality_qubo.hpp"
#include "core/maxcut_qubo.hpp"

namespace hycim::cop {

// --- QKP ---------------------------------------------------------------

core::ConstrainedQuboForm to_constrained_form(const QkpInstance& inst) {
  core::InequalityQuboForm single = core::to_inequality_qubo(inst);
  core::ConstrainedQuboForm form;
  form.q = std::move(single.q);
  form.constraints.push_back({std::move(single.weights), single.capacity});
  return form;
}

QkpSolveResult qkp_result(const QkpInstance& inst, core::SolveResult r) {
  QkpSolveResult out;
  out.best_x = std::move(r.best_x);
  out.best_energy = r.best_energy;
  out.feasible = inst.feasible(out.best_x);
  out.profit = out.feasible ? inst.total_profit(out.best_x) : 0;
  out.sa = std::move(r.sa);
  return out;
}

QkpSolveResult solve_qkp(core::HyCimSolver& solver, const QkpInstance& inst,
                         const qubo::BitVector& x0, std::uint64_t run_seed) {
  return qkp_result(inst, solver.solve(x0, run_seed));
}

QkpSolveResult solve_qkp_from_random(core::HyCimSolver& solver,
                                     const QkpInstance& inst,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  const qubo::BitVector x0 = random_feasible(inst, rng);
  return solve_qkp(solver, inst, x0, rng.next_u64());
}

// --- MDKP --------------------------------------------------------------

core::ConstrainedQuboForm to_constrained_form(const MdkpInstance& inst) {
  core::ConstrainedQuboForm form;
  form.q = qubo::QuboMatrix(inst.n);
  for (std::size_t i = 0; i < inst.n; ++i) {
    for (std::size_t j = i; j < inst.n; ++j) {
      const long long p = inst.profit(i, j);
      if (p != 0) form.q.set(i, j, -static_cast<double>(p));
    }
  }
  for (std::size_t d = 0; d < inst.dimensions(); ++d) {
    cim::LinearConstraint c;
    c.weights = inst.weights[d];
    c.capacity = inst.capacities[d];
    form.constraints.push_back(std::move(c));
  }
  return form;
}

// --- Bin packing -------------------------------------------------------

qubo::BitVector BinPackingForm::decode_assignment(
    std::span<const std::uint8_t> v) const {
  return qubo::BitVector(v.begin(),
                         v.begin() + static_cast<long>(items * bins));
}

std::size_t BinPackingForm::used_bins(std::span<const std::uint8_t> v) const {
  std::size_t used = 0;
  for (std::size_t b = 0; b < bins; ++b) used += v[y_index(b)];
  return used;
}

BinPackingForm to_constrained_form(const BinPackingInstance& inst,
                                   const BinPackingQuboParams& params) {
  BinPackingForm out;
  out.items = inst.num_items();
  out.bins = inst.max_bins;
  const std::size_t n_vars = out.items * out.bins + out.bins;
  out.form.q = qubo::QuboMatrix(n_vars);
  auto& q = out.form.q;
  const double a = params.one_hot_weight;
  const double a2 = params.usage_link_weight;

  // Objective: Σ_b cost·y_b.
  for (std::size_t b = 0; b < out.bins; ++b) {
    q.add(out.y_index(b), out.y_index(b), params.bin_use_cost);
  }
  // Equality penalty: each item in exactly one bin,
  // A(1 − Σ_b x_ib)² = A − A Σ_b x_ib + 2A Σ_{b<c} x_ib x_ic.
  for (std::size_t i = 0; i < out.items; ++i) {
    q.add_offset(a);
    for (std::size_t b = 0; b < out.bins; ++b) {
      q.add(out.x_index(i, b), out.x_index(i, b), -a);
      for (std::size_t c = b + 1; c < out.bins; ++c) {
        q.add(out.x_index(i, b), out.x_index(i, c), 2.0 * a);
      }
    }
  }
  // Usage link: x_ib without y_b costs A2 (A2·x_ib·(1 − y_b)).
  for (std::size_t i = 0; i < out.items; ++i) {
    for (std::size_t b = 0; b < out.bins; ++b) {
      q.add(out.x_index(i, b), out.x_index(i, b), a2);
      q.add(out.x_index(i, b), out.y_index(b), -a2);
    }
  }
  // One inequality per bin: Σ_i size_i x_ib <= C (zeros elsewhere).
  for (std::size_t b = 0; b < out.bins; ++b) {
    cim::LinearConstraint c;
    c.weights.assign(n_vars, 0);
    for (std::size_t i = 0; i < out.items; ++i) {
      c.weights[out.x_index(i, b)] = inst.item_sizes[i];
    }
    c.capacity = inst.bin_capacity;
    out.form.constraints.push_back(std::move(c));
  }
  return out;
}

qubo::BitVector encode_assignment(const BinPackingForm& form,
                                  const std::vector<std::size_t>& bins) {
  if (bins.size() != form.items) {
    throw std::invalid_argument("encode_assignment: size mismatch");
  }
  qubo::BitVector v(form.form.size(), 0);
  for (std::size_t i = 0; i < form.items; ++i) {
    if (bins[i] >= form.bins) {
      throw std::invalid_argument("encode_assignment: bin index out of range");
    }
    v[form.x_index(i, bins[i])] = 1;
    v[form.y_index(bins[i])] = 1;
  }
  return v;
}

// --- Max-Cut ------------------------------------------------------------

core::ConstrainedQuboForm to_constrained_form(const MaxCutInstance& inst) {
  core::ConstrainedQuboForm form;
  form.q = core::to_maxcut_qubo(inst);
  return form;
}

// --- Graph coloring ----------------------------------------------------

ColoringForm to_constrained_form(const ColoringInstance& g,
                                 const ColoringFormParams& params) {
  ColoringForm out;
  out.vertices = g.num_vertices;
  out.colors = g.num_colors;
  const std::size_t n_vars = g.num_variables();
  out.form.q = qubo::QuboMatrix(n_vars);
  // Conflict penalty: B per monochromatic edge.
  for (const auto& [u, v] : g.edges) {
    for (std::size_t c = 0; c < out.colors; ++c) {
      out.form.q.add(out.index(u, c), out.index(v, c), params.conflict_weight);
    }
  }
  // One equality per vertex: Σ_c x_{v,c} = 1 (zeros elsewhere).
  for (std::size_t v = 0; v < out.vertices; ++v) {
    cim::LinearConstraint c;
    c.weights.assign(n_vars, 0);
    for (std::size_t k = 0; k < out.colors; ++k) {
      c.weights[out.index(v, k)] = 1;
    }
    c.capacity = 1;
    out.form.equalities.push_back(std::move(c));
  }
  return out;
}

qubo::BitVector encode_coloring(const ColoringForm& form,
                                const std::vector<std::size_t>& colors) {
  if (colors.size() != form.vertices) {
    throw std::invalid_argument("encode_coloring: size mismatch");
  }
  qubo::BitVector v(form.form.size(), 0);
  for (std::size_t vert = 0; vert < form.vertices; ++vert) {
    if (colors[vert] >= form.colors) {
      throw std::invalid_argument("encode_coloring: color out of range");
    }
    v[form.index(vert, colors[vert])] = 1;
  }
  return v;
}

}  // namespace hycim::cop
