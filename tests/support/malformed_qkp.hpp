// Malformed variants of a well-formed QKP instance — the inputs every
// lowering must refuse with std::invalid_argument before it reads
// weights[i] or the profit rows.  Header-only so each test target includes
// it directly.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cop/qkp.hpp"

namespace hycim::cop {

/// `inst` (n >= 2) with a short weights vector, with a short profits
/// vector, and with p_01 != p_10, each named.
inline std::vector<std::pair<std::string, QkpInstance>> malformed_qkp(
    const QkpInstance& inst) {
  std::vector<std::pair<std::string, QkpInstance>> out;
  QkpInstance short_weights = inst;
  short_weights.weights.pop_back();
  out.emplace_back("short weights", std::move(short_weights));
  QkpInstance short_profits = inst;
  short_profits.profits.pop_back();
  out.emplace_back("short profits", std::move(short_profits));
  QkpInstance asymmetric = inst;
  asymmetric.profits[0 * inst.n + 1] += 1;
  out.emplace_back("asymmetric profits", std::move(asymmetric));
  return out;
}

}  // namespace hycim::cop
