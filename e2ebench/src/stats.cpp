#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace e2e {

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = percentile_sorted(samples, 50.0);
  s.tail = s.median;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (samples_beyond(s.n, p) >= 10) {
      s.tail_pct = p;
      s.tail = percentile_sorted(samples, p);
      break;
    }
  }
  return s;
}

std::string describe_tail(const Summary& s) {
  std::ostringstream out;
  out << "p" << s.tail_pct << " of " << s.n;
  return out.str();
}

double median(std::vector<double> samples) { return summarize(samples).median; }

}  // namespace e2e
