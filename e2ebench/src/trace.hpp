// Span recorder for the traced benchmark run.
//
// The benchmark measures each solver layer from outside: it wraps a Span
// around every call it makes into a layer's public functions (cop::lower,
// the HyCimSolver constructors and solve, run_batch, the D-QUBO solver, ...).
// Spans go to per-thread buffers with no locking on the hot path; the buffers
// are merged by collect() after the traced pass has joined.  When tracing is
// disabled a Span costs one relaxed atomic load and records nothing.
//
// A layer's self time is its span's duration minus the part of that interval
// its child spans cover (children may run on other threads, so coverage is
// the measure of the union of their intervals clipped to the parent).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// One finished span.  Times are seconds since the recorder's epoch.
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< a string literal (layer.operation)
  std::uint64_t item = 0;    ///< instance or request id the span belongs to
  double start = 0.0;
  double end = 0.0;
};

/// Turns recording on or off for spans opened afterwards.
void set_tracing(bool on);
bool tracing();

/// The innermost span open on the calling thread (0 when none or tracing is
/// off) — what a task running on another thread passes as its parent.
std::uint32_t current_span();

/// Merges and clears every thread's buffer.  Call only while no span is
/// open (after the traced pass has joined).
std::vector<SpanRecord> collect_spans();

/// RAII span.  The parent defaults to the calling thread's innermost open
/// span; pass one explicitly when the work was handed over from another
/// thread.
class Span {
 public:
  Span(const char* name, std::uint64_t item);
  Span(const char* name, std::uint64_t item, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_ = 0;  ///< 0 = not recording
};

/// Length of the union of `intervals` clipped to [lo, hi].
double covered_length(double lo, double hi,
                      std::vector<std::pair<double, double>> intervals);

/// Per span name: how many spans, their summed duration, and their summed
/// self time (duration minus child coverage).
struct LayerTime {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double self_with_children_s = 0.0;  ///< self time of spans that had children
};

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span (name, id, parent, item, start, end).
void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans);

}  // namespace e2e
