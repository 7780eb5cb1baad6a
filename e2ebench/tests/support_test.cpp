// Unit tests for the benchmark's percentile helper and span self-time
// arithmetic.  run.py runs this binary before every benchmark invocation
// and refuses to report when it fails.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL line " << line << ": " << what << "\n";
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending: summarize must sort
}

void test_percentiles() {
  using namespace e2e;
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(999, 99.0) == 9);
  CHECK(samples_beyond(100, 90.0) == 10);
  CHECK(samples_beyond(0, 50.0) == 0);

  const Summary big = summarize(one_to(1000));
  CHECK(big.n == 1000);
  CHECK(near(big.median, 500.0));
  CHECK(near(big.tail_pct, 99.0));
  CHECK(near(big.tail, 990.0));

  const Summary huge = summarize(one_to(10000));
  CHECK(near(huge.tail_pct, 99.9));
  CHECK(near(huge.tail, 9990.0));

  // 999 samples: p99 has only 9 beyond it, so the tail falls back to p95.
  const Summary just_short = summarize(one_to(999));
  CHECK(near(just_short.tail_pct, 95.0));
  CHECK(near(just_short.tail, 950.0));

  const Summary forty = summarize(one_to(40));
  CHECK(near(forty.tail_pct, 75.0));
  CHECK(near(forty.tail, 30.0));

  const Summary tiny = summarize(one_to(5));
  CHECK(near(tiny.tail_pct, 50.0));
  CHECK(near(tiny.tail, 3.0));
  CHECK(near(tiny.median, 3.0));

  const Summary none = summarize({});
  CHECK(none.n == 0 && none.median == 0.0 && none.tail == 0.0);
  CHECK(describe_tail(big) == "p99 of 1000");
}

void test_coverage() {
  using e2e::covered_length;
  CHECK(near(covered_length(0, 10, {}), 0.0));
  CHECK(near(covered_length(0, 10, {{1, 3}, {2, 5}}), 4.0));     // overlap
  CHECK(near(covered_length(0, 10, {{1, 2}, {4, 6}}), 3.0));     // disjoint
  CHECK(near(covered_length(0, 10, {{-5, 2}, {8, 20}}), 4.0));   // clipped
  CHECK(near(covered_length(0, 10, {{2, 9}, {3, 4}}), 7.0));     // nested
  CHECK(near(covered_length(0, 10, {{12, 15}}), 0.0));           // outside
  CHECK(near(covered_length(0, 10, {{0, 10}, {0, 10}}), 10.0));  // duplicate
}

void test_self_times() {
  using namespace e2e;
  // parent [0, 10] with children [1, 4] and [3, 6] on other threads, and a
  // grandchild [2, 3] under the first child.
  std::vector<SpanRecord> spans = {
      {1, 0, "rt.batch", 0, 0.0, 10.0},
      {2, 1, "walk.solve", 0, 1.0, 4.0},
      {3, 1, "walk.solve", 1, 3.0, 6.0},
      {4, 2, "fab.clone", 0, 2.0, 3.0},
  };
  const auto layers = layer_times(spans);
  CHECK(layers.at("rt.batch").count == 1);
  CHECK(near(layers.at("rt.batch").total_s, 10.0));
  CHECK(near(layers.at("rt.batch").self_s, 5.0));
  CHECK(near(layers.at("rt.batch").self_with_children_s, 5.0));
  CHECK(layers.at("walk.solve").count == 2);
  CHECK(near(layers.at("walk.solve").total_s, 6.0));
  CHECK(near(layers.at("walk.solve").self_s, 5.0));
  CHECK(near(layers.at("walk.solve").self_with_children_s, 2.0));
  CHECK(near(layers.at("fab.clone").self_s, 1.0));
}

void test_recorder() {
  using namespace e2e;
  set_tracing(false);
  { Span off("cop.lower", 7); }
  CHECK(collect_spans().empty());

  set_tracing(true);
  std::uint32_t outer_id = 0;
  {
    Span outer("rt.batch", 1);
    outer_id = current_span();
    CHECK(outer_id != 0);
    std::thread worker([outer_id] { Span inner("walk.solve", 2, outer_id); });
    worker.join();
    { Span nested("fab.clone", 3); }
  }
  set_tracing(false);
  const auto spans = collect_spans();
  CHECK(spans.size() == 3);
  std::size_t children = 0;
  for (const SpanRecord& s : spans) {
    CHECK(s.end >= s.start);
    if (s.parent == outer_id) ++children;
  }
  CHECK(children == 2);
  CHECK(collect_spans().empty());  // collect drains the buffers
}

}  // namespace

int main() {
  test_percentiles();
  test_coverage();
  test_self_times();
  test_recorder();
  if (g_failures != 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cerr << "e2ebench support tests passed\n";
  return EXIT_SUCCESS;
}
