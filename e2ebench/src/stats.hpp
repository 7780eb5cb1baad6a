// Percentile discipline for every timing the benchmark reports: the median
// plus the highest percentile that still has at least ten samples beyond
// it, together with the sample count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank ceil(p/100 · n) (1-based).  Requires a non-empty sample.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Median and tail of one timing.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_pct = 50.0;  ///< the percentile `tail` holds
  double tail = 0.0;
};

/// The tail is the highest of p99.9, p99, p95, p90, p75 with at least ten
/// samples beyond it; samples too small for any of them report the median
/// as the tail (tail_pct = 50).  An empty sample gives all zeros.
Summary summarize(std::vector<double> samples);

/// "p99 of 1234" — how a summary's tail was taken, for the report lines.
std::string describe_tail(const Summary& s);

double median(std::vector<double> samples);

}  // namespace e2e
