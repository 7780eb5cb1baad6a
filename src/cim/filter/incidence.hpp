// Variable -> (filter, local column) incidence over a set of
// support-compressed filters — the routing structure behind the
// constraint-incidence hot path.  The FilterBank fabricates each row's
// filter (≤ and = rows alike) over the row's support (the nonzero-weight
// variables) and uses this index to translate a move's global flip
// indices into per-incident-filter local column lists, so trial/apply
// touch only the filters whose rows contain a flipped bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hycim::cim {

/// CSR incidence from variables to the (filter, local column) pairs they
/// are wired into, plus the flip-grouping used by every gated hot path.
class VariableIncidence {
 public:
  VariableIncidence() = default;

  /// Builds the index: supports[f] lists filter f's wired variables in
  /// ascending order, local column s holding variable supports[f][s].
  VariableIncidence(std::span<const std::vector<std::uint32_t>> supports,
                    std::size_t variables);

  /// Number of variables of the full configuration vector.
  std::size_t variables() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// One incident filter of a grouped move: the filter id and its local
  /// column indices (a subrange of the grouping's locals buffer).
  struct Touched {
    std::uint32_t filter = 0;
    std::span<const std::size_t> locals;
  };

  /// Groups global `flips` into per-incident-filter local column lists:
  /// one Touched entry per incident filter, ascending filter order, flip
  /// order preserved within each filter.  Throws std::invalid_argument on
  /// an out-of-range flip.  The returned spans alias internal scratch,
  /// valid until the next group() call — one index is driven by one walk
  /// at a time, like the filters' own trial scratch.
  std::span<const Touched> group(std::span<const std::size_t> flips) const;

 private:
  std::vector<std::size_t> offsets_;  // variables + 1
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries_;
  // group() scratch.
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> flip_entries_;
  mutable std::vector<std::size_t> locals_;
  mutable std::vector<Touched> touched_;
};

}  // namespace hycim::cim
